#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

* Smoke: every workload the harness runs (BENCHMARK.json's and the ungated
  score_closed_64row), untraced and traced, in smoke mode (short phases)
  prints exactly the metrics BENCHMARK.json names, each with its unit, and
  passes its correctness check.
* Negative: a corrupted reference (one flipped class) drives
  verdict_agree_frac below 1 and fails the correctness check.
* Setup: the benchmark fails, printing no result, where the library
  sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
# Every workload the harness runs: BENCHMARK.json's and the ungated
# score_closed_64row.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402


def run_benchmark(workload, trace, *extra, cwd=ROOT):
    """Runs BENCHMARK.json's command; returns (exit code, stdout lines)."""
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace)] + list(extra)
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600,
                          check=False)
    return done.returncode, done.stdout.splitlines()


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        code, lines = run_benchmark(workload, trace, "--smoke")
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_untraced_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, BENCHMARK["end_to_end"])

    def test_traced_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, BENCHMARK["per_layer"])


class CorruptedReference(unittest.TestCase):
    def test_one_flipped_class_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run_benchmark(workload, 0, "--smoke",
                                            "--corrupt-reference")
                self.assertEqual(code, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertLess(
                    result["metrics"]["verdict_agree_frac"]["value"], 1.0)


class MissingSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run_benchmark(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
