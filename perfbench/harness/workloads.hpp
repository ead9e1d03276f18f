// The three workloads and the per-layer measurements of the traced run.
//
// Every run prints every end-to-end metric (untraced) or every per-layer
// metric (traced), whichever workload it runs; README.md gives each
// metric's definition per workload.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunResult {
  Metrics metrics;
  OutputCheck check;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Human-readable lines printed before the result (sample counts, checks).
  std::vector<std::string> notes;
};

RunResult run_score_open(const Options& options);
RunResult run_score_closed(const Options& options);
RunResult run_greybox(const Options& options);

// ---- Pieces shared by the traced runs ---------------------------------------

/// Server-side per-layer metrics (net.*, serve.*, core.scan_ms.p50,
/// bench.gen_late_ms.p99) from a short traced open-loop phase of 1-row
/// requests — used by the traced run of the workload without a server.
void server_layer_probe(World& world, const Options& options,
                        double seconds, Metrics& metrics, OutputCheck& check);

/// Attack-pipeline per-layer metrics (core.substitute_train_s,
/// core.sweep_s, attack.*) from one traced grey-box pipeline run — used by
/// the traced runs of the workloads without one.
void greybox_layer_probe(World& world, const Options& options,
                         Metrics& metrics, OutputCheck& check);

/// Single-layer timings through the public functions of net, core,
/// features, nn and math on the target and substitute shapes.
void layer_suite(World& world, const Options& options, Metrics& metrics);

/// Setup-derived per-layer metrics (data.generate_s, nn.target_train_s).
void setup_layer_metrics(const std::vector<double>& generate_s,
                         const std::vector<double>& target_train_s,
                         Metrics& metrics);

}  // namespace perfbench
