// Shared pieces of the benchmark harness: options, the metric sink,
// quantiles, the seeded world (corpus + target detector), bench-side layer
// spans, output checks and provenance.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/synthetic.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}
/// Microseconds on the steady clock, the epoch runtime::SystemClock (and so
/// obs::Tracer) uses.
inline std::uint64_t steady_us(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          t.time_since_epoch())
          .count());
}

// ---- Workload definitions (fixed; recorded in every result) ------------

/// ScoringService::workers and FrontendConfig::worker_threads (a socket
/// worker serves one connection at a time, so at least one per
/// connection). Every other ServiceConfig field stays at its library
/// default (2 ms batch window). One scoring worker, so no run depends on
/// which worker a connection's submissions happen to reach.
inline constexpr std::size_t kServiceWorkers = 1;
inline constexpr std::size_t kFrontendThreads = 4;
/// Client connections (one client thread drives all of them). Four 64-row
/// requests outstanding keep the scoring worker busy: it never waits for
/// the next request, so throughput is its scoring rate, not a chain of
/// thread wake-ups.
inline constexpr std::size_t kOpenConnections = 2;
inline constexpr std::size_t kClosedConnections = 4;
/// OpenMP threads of the score workloads (OMP_NUM_THREADS, set by
/// perfbench/run.py). With the default, every batch of more than a few rows
/// forks a team of nproc spinning threads next to the socket workers and
/// the client, and the run measures the scheduler. greybox_transfer keeps
/// the default.
inline constexpr int kScoreOmpThreads = 1;
/// Rows per request of score_closed_64row.
inline constexpr std::size_t kBulkRows = 64;
/// Per-request deadlines: a request not answered 200 within this many ms
/// (from its due time) is failed. Also sent as X-Deadline-Ms.
inline constexpr std::uint64_t kOpenDeadlineMs = 100;
inline constexpr std::uint64_t kClosedDeadlineMs = 1000;
/// Test rows the per-layer suite times its calls on.
inline constexpr std::size_t kLayerRows = 1024;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;
/// Server starts the timed part of a score workload is split across.
inline constexpr std::size_t kRestarts = 4;
/// Open-loop validity bound: a run whose generator ran later than this at
/// p99 measured the client, not the server, and is marked invalid.
inline constexpr double kMaxGenLateP99Ms = 10.0;
/// |Δ confidence| allowed between a served verdict and the double-precision
/// reference.
inline constexpr double kConfidenceTolerance = 1e-4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double open_rps = 0.0;
  /// Short warm-up and layer timings: checks the plumbing, not the numbers.
  bool smoke = false;
  /// Flips one reference class (the harness's own negative test).
  bool corrupt_reference = false;
  std::string out_dir = ".";
};

// ---- Metrics ---------------------------------------------------------------

class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  /// Sets (or overwrites) one metric.
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const noexcept { return entries_; }
  /// `{"name": {"value": v, "unit": "u"}, ...}` with all digits.
  std::string json() const;

 private:
  std::vector<Entry> entries_;
};

/// Linear-interpolated quantile of `v` (q in [0,1]); +inf entries sort last.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// How an end-to-end timing summarises its windows (or pipeline runs): the
/// quartile on the fast side — the lower quartile of times, the upper one
/// of rates. Co-tenants on a shared host slow a thread by up to 40% for
/// seconds at a time; a slower program is slower in every window, so this
/// quartile still moves with the code while most of those spells do not.
inline double fast_quartile_time(std::vector<double> v) {
  return quantile(std::move(v), 0.25);
}
inline double fast_quartile_rate(std::vector<double> v) {
  return quantile(std::move(v), 0.75);
}

/// Formats a double with round-trip precision.
std::string fmt(double v);

// ---- Output checks ---------------------------------------------------------

/// Verdicts per reference row: class and P(malware), from an independent
/// double-precision forward pass (reference.cpp).
struct Reference {
  std::vector<int> predicted_class;
  std::vector<double> malware_confidence;
};

class OutputCheck {
 public:
  /// One served verdict for reference row `row`.
  void verdict(const Reference& ref, std::size_t row, bool malware,
               double confidence);
  /// A named check that failed (printed, and makes the run incorrect).
  void fail(const std::string& what);
  void merge(const OutputCheck& other);

  std::size_t rows() const noexcept { return rows_; }
  double agree_frac() const noexcept {
    return rows_ == 0 ? 0.0
                      : static_cast<double>(agree_) /
                            static_cast<double>(rows_);
  }
  double max_dconf() const noexcept { return max_dconf_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  /// Every verdict agreed within tolerance and no named check failed.
  bool ok() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t agree_ = 0;
  double max_dconf_ = 0.0;
  std::vector<std::string> failures_;
};

// ---- The seeded world ------------------------------------------------------

/// Corpus and target detector: the deployed model, the same in every run
/// (the experiment config's own seed). The run's --seed picks the inputs
/// the workloads feed it.
struct World {
  mev::core::ExperimentConfig config;
  std::unique_ptr<mev::data::GenerativeModel> generator;
  mev::data::DatasetBundle bundle;
  mev::core::DetectorTrainingResult trained;
  double generate_s = 0.0;
  double target_train_s = 0.0;

  mev::core::MalwareDetector& detector() { return *trained.detector; }
  /// The first `n` test rows (raw counts), cycled when `n` exceeds them.
  mev::math::Matrix test_rows(std::size_t n) const;
};

/// An independent stream derived from the run's seed for one use.
std::uint64_t seed_stream(std::uint64_t seed, std::uint64_t stream);

/// Generates the corpus and trains the target at the "fast" scale.
std::unique_ptr<World> build_world();

// ---- Bench-side layer spans -------------------------------------------------

/// Installs the tracer bench-side spans go to; nullptr turns them off.
void install_tracer(mev::obs::Tracer* tracer);
mev::obs::Tracer* installed_tracer();

/// RAII span around one bench-side call into a layer, named
/// "<layer>.<function>". Spans opened on one thread nest: the enclosing
/// LayerSpan is the parent. Inert while no tracer is installed.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  LayerSpan(LayerSpan&&) = delete;
  LayerSpan& operator=(LayerSpan&&) = delete;

 private:
  mev::obs::Span span_;
  mev::obs::TraceContext saved_parent_;
};

/// Emits an already-timed span as a child of `parent` (a fresh trace when
/// `parent` is invalid). No-op while no tracer is installed.
void emit_span(const char* name, mev::obs::TraceContext parent,
               std::uint64_t start_us, std::uint64_t end_us);

/// The tracer of one traced run: bench-side spans are recorded between
/// start() and stop(); finish() reports self time per layer and dropped
/// spans, and writes the Chrome trace.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void start();
  void stop();
  /// Adds trace.self_s.<layer>, obs.spans_dropped and
  /// bench.trace_overhead_frac; writes <out_dir>/trace_<workload>.json.
  /// A dropped span fails `check`: the trace would be incomplete.
  void finish(const Options& options, double overhead_frac,
              Metrics& metrics, OutputCheck& check,
              std::vector<std::string>& notes);

 private:
  mev::obs::Tracer tracer_;
};

/// The layers trace.self_s.* reports, named after the library's modules.
inline constexpr const char* kTracedLayers[] = {
    "net", "serve", "core", "features", "nn", "math", "attack", "data"};

/// Self time (span duration minus the part its children cover), summed per
/// layer — the span name's prefix before the first '.' — in seconds.
std::map<std::string, double> self_time_by_layer(
    const std::vector<mev::obs::TraceEvent>& events);

// ---- Provenance ------------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints), as read on the
/// first call; call it before any PinThread.
const cpu_set_t& process_cpus();
std::size_t cpu_count();

/// The score workloads split the CPUs as if the client ran on another
/// machine: the load generator gets the last CPU, the server's threads the
/// others (with one CPU, both get it). Neither then competes for the
/// other's CPU; with both free to roam, the scheduler sometimes put the
/// polling client next to the scoring worker and halved its throughput.
cpu_set_t client_cpus();
cpu_set_t server_cpus();

/// Pins the calling thread to `cpus` while the guard lives; threads it
/// starts meanwhile inherit the mask.
class PinThread {
 public:
  explicit PinThread(const cpu_set_t& cpus);
  ~PinThread();
  PinThread(const PinThread&) = delete;
  PinThread& operator=(const PinThread&) = delete;

 private:
  cpu_set_t saved_;
};
/// omp_get_max_threads(), or 1 without OpenMP.
int omp_threads();
/// omp_set_num_threads(n): teams forked from the calling thread only.
void set_omp_threads(int n);
/// Peak resident set size of this process, MB.
double peak_rss_mb();
/// One JSON object: nproc, OpenMP threads, OMP_NUM_THREADS, git SHA, build
/// flags, source digest and the fixed server thread counts.
std::string provenance_json(const std::string& source_digest);

}  // namespace perfbench
