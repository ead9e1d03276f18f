#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run one workload (from the repository root):

    python3 perfbench/run.py --open-rps 20000 --workload score_open_1row \
        --seed 1 --seconds 10 --trace 0

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are
comments starting with "#". Build output goes to stderr. The harness is
built from source with CMake into .bench_build/ on first use.

Compare two result records (written to .bench_build/perfbench-out/):

    python3 perfbench/run.py compare A.json B.json

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
# score_closed_64row runs by hand; BENCHMARK.json does not gate it (see
# README.md, "How steady it is").
WORKLOADS = ("score_open_1row", "score_closed_64row", "greybox_transfer")
# The harness must finish well inside the 180 s a run is allowed.
HARNESS_TIMEOUT_S = 170
# Provenance fields that make two results incomparable when they differ.
PROVENANCE_KEYS = ("nproc", "omp_threads", "omp_num_threads_env", "git_sha",
                   "build_flags", "source_digest", "service_workers",
                   "frontend_worker_threads")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    when there is no git SHA (a plain checkout)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build():
    """Configures once and builds the harness; returns False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
        except OSError as error:
            log("cannot run %s: %s" % (step[0], error))
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run(args, extra):
    if not build():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--open-rps", str(args.open_rps), "--out-dir", OUT_DIR,
               "--source-digest", source_digest()] + extra
    env = dict(os.environ)
    if args.workload.startswith("score_"):
        # One OpenMP thread next to the server's own threads; see
        # kScoreOmpThreads in harness/common.hpp.
        env["OMP_NUM_THREADS"] = "1"
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=False,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s and was stopped" % HARNESS_TIMEOUT_S)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log("harness failed (exit %d)" % done.returncode)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


def compare(paths):
    """Prints two result records side by side; warns when their provenance
    differs, since then the numbers measure different things."""
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    a, b = records
    differs = [k for k in PROVENANCE_KEYS
               if a["provenance"].get(k) != b["provenance"].get(k)]
    for key in ("workload", "seconds", "trace", "open_rps"):
        if a.get(key) != b.get(key):
            differs.append(key)
    for key in differs:
        print("WARNING: %s differs: %r vs %r" % (
            key, a["provenance"].get(key, a.get(key)),
            b["provenance"].get(key, b.get(key))))
    if differs:
        print("WARNING: these results come from different builds, boxes or "
              "settings; a difference below may not be the code's.")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        change = "" if va == 0 else " (%+.1f%%)" % (100.0 * (vb - va) / va)
        print("%-36s %14.6g %14.6g %s%s" % (name, va, vb, ma[name]["unit"],
                                              change))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--open-rps", required=True, type=float,
                        help="offered rate of score_open_1row, requests/s "
                             "(BENCHMARK.json's command sets it)")
    args, extra = parser.parse_known_args(argv)
    return run(args, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
