// The repository benchmark harness: runs one seeded workload, checks its
// outputs, and prints its metrics; the last line of stdout is the result
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--open-rps <r>] [--out-dir <dir>] [--source-digest <hex>]
//                     [--smoke] [--corrupt-reference]
//
// perfbench/run.py builds this binary and passes the BENCHMARK.json command's
// arguments through; see perfbench/README.md.
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_harness: " << problem
            << "\nusage: perfbench_harness --workload "
               "<score_open_1row|score_closed_64row|greybox_transfer> "
               "--seed <n> --seconds <s> --trace <0|1> [--open-rps <r>] "
               "[--out-dir <dir>] [--source-digest <hex>] [--smoke] "
               "[--corrupt-reference]\n";
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& digest) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") { o.seed = std::stoull(value()); have_seed = true; }
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--open-rps") o.open_rps = std::stod(value());
      else if (arg == "--out-dir") o.out_dir = value();
      else if (arg == "--source-digest") digest = value();
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--corrupt-reference") o.corrupt_reference = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string digest = "unknown";
  const Options options = parse(argc, argv, digest);

  RunResult result;
  try {
    if (options.workload == "score_open_1row") result = run_score_open(options);
    else if (options.workload == "score_closed_64row") result = run_score_closed(options);
    else if (options.workload == "greybox_transfer") result = run_greybox(options);
    else usage("unknown workload " + options.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << options.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }

  const bool correct = result.check.ok();
  const std::string provenance = provenance_json(digest);
  std::cout << "# provenance " << provenance << "\n";
  for (const std::string& note : result.notes) std::cout << "# " << note << "\n";
  for (const std::string& failure : result.check.failures())
    std::cout << "# CHECK FAILED: " << failure << "\n";
  std::cout << "# verdicts: " << result.check.rows() << " checked, agreement "
            << fmt(result.check.agree_frac()) << ", max |dconf| "
            << fmt(result.check.max_dconf()) << " (tolerance "
            << fmt(kConfidenceTolerance) << ")\n";
  for (const Metrics::Entry& e : result.metrics.entries())
    std::cout << "# " << e.name << " = " << fmt(e.value) << " " << e.unit << "\n";
  std::cout << "# correctness: " << (correct ? "PASS" : "FAIL") << "\n";

  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + result.metrics.json() + "}";

  // The full record, with provenance, for perfbench/run.py compare.
  const std::string path = options.out_dir + "/result_" + options.workload +
                           "_seed" + std::to_string(options.seed) + "_trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream record(path);
  record << "{\"workload\": \"" << json_escape(options.workload)
         << "\", \"seed\": " << options.seed << ", \"seconds\": "
         << fmt(options.seconds) << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"open_rps\": " << fmt(options.open_rps)
         << ", \"provenance\": " << provenance << ", \"result\": " << line
         << "}\n";

  std::cout << line << std::endl;
  return 0;
}
