// score_open_1row and score_closed_64row: the deployed detector behind
// net::ScoringFrontend, driven over loopback HTTP by http_load.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "http_load.hpp"
#include "net/frontend.hpp"
#include "net/wire.hpp"
#include "reference.hpp"
#include "serve/scoring_service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mev;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Streams of the run's seed (seed_stream), one per use.
constexpr std::uint64_t kPoolStream = 1;
constexpr std::uint64_t kScheduleStream = 16;  // +0 whole run, +1/+2 halves

// ---- The server under test --------------------------------------------------

obs::LoggerConfig quiet_logger_config() {
  // Per-rejection warnings would turn an overload into a measurement of
  // stderr; errors still print.
  obs::LoggerConfig config;
  config.min_level = obs::LogLevel::kError;
  return config;
}

/// ScoringService + ScoringFrontend as a deployment runs them: the fixed
/// thread counts, library defaults for everything else.
class ScoreServer {
 public:
  explicit ScoreServer(World& world)
      : logger_(quiet_logger_config()),
        service_(world.detector().pipeline(), world.detector().network_ptr(),
                 service_config(&logger_)),
        frontend_(service_, frontend_config(&logger_)) {
    if (!frontend_.start())
      throw std::runtime_error("scoring frontend failed to bind");
  }
  ~ScoreServer() {
    frontend_.stop();
    service_.shutdown();
  }
  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  std::uint16_t port() const noexcept { return frontend_.port(); }
  serve::ScoringService& service() noexcept { return service_; }

 private:
  static serve::ServiceConfig service_config(obs::Logger* logger) {
    serve::ServiceConfig config;
    config.workers = kServiceWorkers;
    config.logger = logger;
    return config;
  }
  static net::FrontendConfig frontend_config(obs::Logger* logger) {
    net::FrontendConfig config;
    config.worker_threads = kFrontendThreads;
    config.api_keys = {net::ApiKey{"perfbench", "perfbench", 1e12, 1e12}};
    config.logger = logger;
    return config;
  }

  obs::Logger logger_;
  serve::ScoringService service_;
  net::ScoringFrontend frontend_;
};

/// Starts a server whose threads run on server_cpus().
std::unique_ptr<ScoreServer> start_score_server(World& world) {
  const PinThread pin(server_cpus());
  return std::make_unique<ScoreServer>(world);
}

// ---- Request bodies ----------------------------------------------------------

/// The rows a workload sends, their labels and reference verdicts, and the
/// pre-encoded requests that carry them.
struct Traffic {
  math::Matrix pool;
  std::vector<int> labels;
  Reference reference;
  std::vector<WireRequest> requests;
};

/// The pool is the whole test split in a seeded order (cut to whole
/// 64-row requests); requests cycle through it.
Traffic make_traffic(World& world, bool bulk, const Options& options) {
  Traffic t;
  const data::CountDataset& test = world.bundle.test;
  std::vector<std::size_t> order(test.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  math::Rng rng(seed_stream(options.seed, kPoolStream));
  rng.shuffle(order);
  order.resize(order.size() / kBulkRows * kBulkRows);
  t.pool = test.counts.gather_rows(order);
  for (const std::size_t i : order) t.labels.push_back(test.labels[i]);
  t.reference = reference_verdicts(world.detector(), t.pool,
                                   options.corrupt_reference);
  const std::size_t n = t.pool.rows();
  if (!bulk) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::string body =
          net::encode_binary_rows(t.pool.slice_rows(r, r + 1));
      t.requests.push_back(WireRequest{
          http_score_request(net::kBinaryContentType, body, kOpenDeadlineMs),
          {r}});
    }
  } else {
    for (std::size_t r = 0; r < n; r += kBulkRows) {
      WireRequest req;
      req.bytes = http_score_request(
          net::kJsonContentType, json_rows(t.pool.slice_rows(r, r + kBulkRows)),
          kClosedDeadlineMs);
      for (std::size_t k = 0; k < kBulkRows; ++k) req.rows.push_back(r + k);
      t.requests.push_back(std::move(req));
    }
  }
  return t;
}

// ---- One measured phase ------------------------------------------------------

/// Span names of the Server-Timing stages, prefixed with the layer each
/// stage belongs to.
constexpr const char* kStageSpans[kTimingStages - 1] = {
    "net.parse", "serve.admission", "serve.queue",
    "serve.batch", "core.scan", "net.serialize"};

void trace_exchange(const Exchange& ex) {
  obs::Tracer* tracer = installed_tracer();
  if (tracer == nullptr) return;
  const std::uint64_t sent_us = steady_us(ex.sent), done_us = steady_us(ex.done);
  const obs::TraceContext root = tracer->make_context();
  tracer->complete_span("net.http_request", root, 0, sent_us, done_us);
  if (!ex.has_timing) return;
  // The server's stages tile its total; centre them in the client's view,
  // splitting the wire time evenly between the two directions.
  const auto total_us = static_cast<std::uint64_t>(ex.timing_ms[6] * 1000.0);
  std::uint64_t t = sent_us + (done_us - sent_us - std::min(total_us, done_us - sent_us)) / 2;
  for (std::size_t s = 0; s + 1 < kTimingStages; ++s) {
    const auto d = static_cast<std::uint64_t>(ex.timing_ms[s] * 1000.0);
    emit_span(kStageSpans[s], root, t, t + d);
    t += d;
  }
}

struct Phase {
  LoopResult loop;
  serve::ServiceStats before, after;
  OutputCheck check;
  std::size_t malware_rows = 0;   // malware-labelled rows answered 200
  std::size_t malware_missed = 0; // ... that the detector called clean
  std::uint64_t deadline_ms = 0;
};

/// Span events one traced phase may emit; busier phases trace every n-th
/// request so the tracer's ring never drops.
constexpr std::size_t kSpanBudget = 100'000;

/// Runs one loop (open when `due_s` is non-empty) against the server,
/// checking every reply against the reference.
Phase run_phase(ScoreServer& server, const Traffic& traffic,
                std::vector<double> due_s, double closed_seconds,
                std::size_t connections, std::uint64_t deadline_ms) {
  Phase phase;
  phase.deadline_ms = deadline_ms;
  std::vector<std::pair<bool, double>> verdicts;
  const std::size_t trace_stride = 1 + due_s.size() * kTimingStages / kSpanBudget;
  std::size_t replies = 0;
  LoopSpec spec;
  spec.port = server.port();
  spec.connections = connections;
  spec.requests = &traffic.requests;
  spec.due_s = std::move(due_s);
  spec.duration_s = closed_seconds;
  spec.drain_s = static_cast<double>(deadline_ms) / 1000.0 + 2.0;
  spec.on_reply = [&](const Exchange& ex, std::string_view body) {
    if (replies++ % trace_stride == 0) trace_exchange(ex);
    if (ex.status != 200) return;
    const std::vector<std::size_t>& rows = traffic.requests[ex.request].rows;
    if (!parse_verdicts(body, verdicts) || verdicts.size() != rows.size()) {
      phase.check.fail("malformed verdicts body");
      return;
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
      phase.check.verdict(traffic.reference, rows[k], verdicts[k].first,
                          verdicts[k].second);
      if (traffic.labels[rows[k]] == data::kMalwareLabel) {
        ++phase.malware_rows;
        if (!verdicts[k].first) ++phase.malware_missed;
      }
    }
  };
  phase.before = server.service().stats();
  phase.loop = run_loop(spec);
  phase.after = server.service().stats();
  if (!phase.loop.error.empty()) phase.check.fail("load generator: " + phase.loop.error);
  return phase;
}

bool answered(const Phase& phase, const Exchange& ex) {
  return ex.status == 200 &&
         ex.latency_from_due_ms() <= static_cast<double>(phase.deadline_ms);
}

std::size_t failed_count(const Phase& phase) {
  std::size_t failed = 0;
  for (const Exchange& ex : phase.loop.exchanges)
    if (!answered(phase, ex)) ++failed;
  return failed;
}

/// Per-request latencies; a failed request counts as +inf (a miss).
std::vector<double> latencies_ms(const Phase& phase, bool from_due) {
  std::vector<double> out;
  out.reserve(phase.loop.exchanges.size());
  for (const Exchange& ex : phase.loop.exchanges)
    out.push_back(!answered(phase, ex)
                      ? kInf
                      : (from_due ? ex.latency_from_due_ms()
                                  : ex.latency_from_send_ms()));
  return out;
}

/// The quantile `q` of latency within each whole second of the phase (by
/// due time), one value per window. Windows under 100 requests (the tail of
/// a closed loop) are dropped while fuller ones exist.
std::vector<double> window_quantiles(const Phase& phase, bool from_due,
                                     double q) {
  const std::vector<double> lat = latencies_ms(phase, from_due);
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        seconds_between(phase.loop.start, phase.loop.exchanges[i].due));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(lat[i]);
  }
  std::vector<double> full, any;
  for (std::vector<double>& w : windows) {
    if (w.empty()) continue;
    const bool big = w.size() >= 100;
    const double v = quantile(std::move(w), q);
    any.push_back(v);
    if (big) full.push_back(v);
  }
  return full.empty() ? any : full;
}

/// Rows answered 200 in each whole second of the phase (by completion
/// time), or the phase average when it is under a second.
std::vector<double> window_rows_per_s(const Phase& phase,
                                      const Traffic& traffic) {
  const double span = seconds_between(phase.loop.start, phase.loop.end);
  const auto windows = static_cast<std::size_t>(span);
  std::vector<double> rows(std::max<std::size_t>(1, windows), 0.0);
  for (const Exchange& ex : phase.loop.exchanges) {
    if (!answered(phase, ex)) continue;
    const auto w = static_cast<std::size_t>(seconds_between(phase.loop.start, ex.done));
    if (windows == 0 || w < windows)
      rows[windows == 0 ? 0 : w] +=
          static_cast<double>(traffic.requests[ex.request].rows.size());
  }
  if (windows == 0) rows[0] /= span;
  return rows;
}

double gen_late_p99_ms(const Phase& phase) {
  std::vector<double> late;
  for (const Exchange& ex : phase.loop.exchanges) late.push_back(ex.gen_late_ms());
  return quantile(std::move(late), 0.99);
}

// ---- Set-up ------------------------------------------------------------------

struct Rig {
  std::unique_ptr<World> world;
  Traffic traffic;
  std::unique_ptr<ScoreServer> server;
  std::vector<double> setup_s, generate_s, target_train_s;
};

/// (Re)starts the server on the rig's world and warms it with a short
/// closed loop of the workload's own requests.
void start_server(Rig& rig, const Options& options, bool bulk) {
  rig.server.reset();
  rig.server = start_score_server(*rig.world);
  LoopSpec warm;
  warm.port = rig.server->port();
  warm.connections = bulk ? kClosedConnections : kOpenConnections;
  warm.requests = &rig.traffic.requests;
  warm.duration_s = options.smoke ? 0.1 : 0.5;
  const LoopResult warmed = run_loop(warm);
  if (!warmed.error.empty())
    throw std::runtime_error("warm-up failed: " + warmed.error);
}

/// Builds world, traffic and server kSetups times (setup_s is their
/// median; the last set is kept). Encoding the bodies and the reference
/// forward are the benchmark's own work and are left out of setup_s.
Rig set_up(const Options& options, bool bulk) {
  Rig rig;
  for (int k = 0; k < kSetups; ++k) {
    rig.server.reset();
    rig.world.reset();
    const auto start = Clock::now();
    rig.world = build_world();
    const auto bench_start = Clock::now();
    rig.traffic = make_traffic(*rig.world, bulk, options);
    const double bench_s = seconds_since(bench_start);
    start_server(rig, options, bulk);
    rig.setup_s.push_back(seconds_since(start) - bench_s);
    rig.generate_s.push_back(rig.world->generate_s);
    rig.target_train_s.push_back(rig.world->target_train_s);
  }
  return rig;
}

// ---- In-process replay (serve.inproc_*) ---------------------------------------

struct InprocSlot {
  Clock::time_point due{}, done{};
  bool ok = false;
  std::atomic<bool> finished{false};
};

void on_inproc(void* ctx, serve::ScoreResult&& result) {
  auto* slot = static_cast<InprocSlot*>(ctx);
  slot->done = Clock::now();
  slot->ok = result.ok();
  slot->finished.store(true, std::memory_order_release);
}

/// Replays an open-loop schedule of 1-row requests through
/// ScoringService::submit_with_callback; latencies from the due time.
std::vector<double> replay_open_inproc(ScoreServer& server,
                                       const Traffic& traffic,
                                       const std::vector<double>& due_s) {
  const PinThread pin(client_cpus());
  const std::size_t n = due_s.size();
  auto slots = std::make_unique<InprocSlot[]>(n);
  serve::SubmitOptions submit;
  submit.deadline_ms = kOpenDeadlineMs;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    slots[i].due = due;
    const std::size_t row = i % traffic.requests.size();
    server.service().submit_with_callback(traffic.pool.slice_rows(row, row + 1),
                                          submit, on_inproc, &slots[i]);
  }
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  std::vector<double> latencies;
  for (std::size_t i = 0; i < n; ++i) {
    while (!slots[i].finished.load(std::memory_order_acquire) &&
           Clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    const bool done = slots[i].finished.load(std::memory_order_acquire);
    const double ms = done ? std::chrono::duration<double, std::milli>(
                                 slots[i].done - slots[i].due)
                                 .count()
                           : kInf;
    latencies.push_back(done && slots[i].ok &&
                                ms <= static_cast<double>(kOpenDeadlineMs)
                            ? ms
                            : kInf);
  }
  if (Clock::now() >= give_up) {
    // Callbacks still pending would write into freed slots.
    server.service().shutdown();
  }
  return latencies;
}

struct ClosedReplay {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> finished;  // client indices
};

struct ClosedSlot {
  ClosedReplay* owner = nullptr;
  std::size_t client = 0;
  Clock::time_point sent{};
  bool ok = false;
};

void on_closed_inproc(void* ctx, serve::ScoreResult&& result) {
  auto* slot = static_cast<ClosedSlot*>(ctx);
  slot->ok = result.ok();
  {
    std::lock_guard<std::mutex> lock(slot->owner->mutex);
    slot->owner->finished.push_back(slot->client);
  }
  slot->owner->cv.notify_one();
}

/// The closed loop of 64-row requests through submit_with_callback, with as
/// many requests outstanding as the HTTP loop has connections.
std::vector<double> replay_closed_inproc(ScoreServer& server,
                                         const Traffic& traffic,
                                         double seconds) {
  const PinThread pin(client_cpus());
  ClosedReplay replay;
  std::vector<ClosedSlot> slots(kClosedConnections);
  std::size_t next = 0, outstanding = 0;
  serve::SubmitOptions submit;
  submit.deadline_ms = kClosedDeadlineMs;
  const auto send = [&](std::size_t c) {
    const std::size_t first = (next++ * kBulkRows) % traffic.pool.rows();
    slots[c].owner = &replay;
    slots[c].client = c;
    slots[c].sent = Clock::now();
    ++outstanding;
    server.service().submit_with_callback(
        traffic.pool.slice_rows(first, first + kBulkRows), submit,
        on_closed_inproc, &slots[c]);
  };
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < slots.size(); ++c) send(c);
  std::vector<double> latencies;
  while (outstanding > 0) {
    std::size_t c = 0;
    {
      std::unique_lock<std::mutex> lock(replay.mutex);
      replay.cv.wait(lock, [&] { return !replay.finished.empty(); });
      c = replay.finished.front();
      replay.finished.pop_front();
    }
    --outstanding;
    const auto now = Clock::now();
    latencies.push_back(
        slots[c].ok
            ? std::chrono::duration<double, std::milli>(now - slots[c].sent).count()
            : kInf);
    if (now < end) send(c);
  }
  return latencies;
}

// ---- Per-layer metrics from a phase -------------------------------------------

void server_metrics(const Phase& phase, Metrics& m) {
  std::array<std::vector<double>, kTimingStages> stage;
  std::vector<double> wire;
  for (const Exchange& ex : phase.loop.exchanges) {
    if (ex.status != 200 || !ex.has_timing) continue;
    for (std::size_t s = 0; s < kTimingStages; ++s)
      stage[s].push_back(ex.timing_ms[s]);
    wire.push_back(ex.latency_from_send_ms() - ex.timing_ms[6]);
  }
  m.set("net.parse_ms.p50", median(stage[0]), "ms");
  m.set("net.serialize_ms.p50", median(stage[5]), "ms");
  m.set("net.wire_ms.p50", median(wire), "ms");
  m.set("net.requests_per_conn",
        static_cast<double>(phase.loop.exchanges.size()) /
            static_cast<double>(std::max<std::size_t>(1, phase.loop.connections)),
        "count");
  m.set("serve.admission_ms.p50", median(stage[1]), "ms");
  m.set("serve.queue_ms.p50", median(stage[2]), "ms");
  m.set("serve.queue_ms.p99", quantile(stage[2], 0.99), "ms");
  m.set("serve.batch_ms.p50", median(stage[3]), "ms");
  m.set("core.scan_ms.p50", median(stage[4]), "ms");

  const serve::ServiceStats& a = phase.before;
  const serve::ServiceStats& b = phase.after;
  const double batches = static_cast<double>(b.batches - a.batches);
  m.set("serve.mean_batch_rows",
        batches > 0 ? static_cast<double>(b.completed_rows - a.completed_rows) /
                          batches
                    : 0.0,
        "rows");
  m.set("serve.batches", batches, "count");
  m.set("serve.stolen_requests",
        static_cast<double>(b.stolen_requests - a.stolen_requests), "count");
  m.set("serve.spilled_submissions",
        static_cast<double>(b.spilled_submissions - a.spilled_submissions),
        "count");
  m.set("serve.rejected",
        static_cast<double>(b.rejected_total() - a.rejected_total()), "count");
  m.set("bench.gen_late_ms.p99", gen_late_p99_ms(phase), "ms");
}

void inproc_metrics(std::vector<double> latencies, Metrics& m) {
  m.set("serve.inproc_p50_ms", quantile(latencies, 0.5), "ms");
  m.set("serve.inproc_p99_ms", quantile(std::move(latencies), 0.99), "ms");
}

void note_phase(const Phase& phase, const char* name, RunResult& out) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu requests over %zu connections, %zu failed, "
                "%zu verdicts checked, max |dconf| %.3g (tolerance %.0e)",
                name, phase.loop.exchanges.size(), phase.loop.connections,
                failed_count(phase), phase.check.rows(),
                phase.check.max_dconf(), kConfidenceTolerance);
  out.notes.push_back(line);
}

// ---- The two workloads ---------------------------------------------------------

enum class Loop { kOpen, kClosed };

/// One phase of the workload itself.
Phase workload_phase(Rig& rig, Loop loop, const Options& options,
                     double seconds, std::uint64_t stream) {
  if (loop == Loop::kOpen)
    return run_phase(*rig.server, rig.traffic,
                     poisson_schedule(options.open_rps, seconds,
                                      seed_stream(options.seed,
                                                  kScheduleStream + stream)),
                     0.0, kOpenConnections, kOpenDeadlineMs);
  return run_phase(*rig.server, rig.traffic, {}, seconds, kClosedConnections,
                   kClosedDeadlineMs);
}

/// The headline latency (ms, lower is better) tracing overhead is judged
/// on: open loop p50 from due; closed loop time per row.
double overhead_basis(const Phase& phase, const Traffic& traffic, Loop loop) {
  if (loop == Loop::kOpen) return median(window_quantiles(phase, true, 0.5));
  return 1000.0 / median(window_rows_per_s(phase, traffic));
}

RunResult run_score(const Options& options, Loop loop) {
  if (loop == Loop::kOpen && !(options.open_rps > 0.0))
    throw std::invalid_argument("score_open_1row needs --open-rps > 0");
  if (omp_threads() != kScoreOmpThreads)
    throw std::invalid_argument(
        "score workloads run with OMP_NUM_THREADS=" +
        std::to_string(kScoreOmpThreads) + " (perfbench/run.py sets it)");
  // The server's threads take OMP_NUM_THREADS; the harness's own thread
  // (set-up, per-layer timings, the grey-box probe) uses every CPU, as
  // without the variable.
  set_omp_threads(static_cast<int>(cpu_count()));
  RunResult out;
  TraceSession trace;
  if (options.trace) trace.start();  // the traced run records set-up too
  Rig rig = set_up(options, loop == Loop::kClosed);
  trace.stop();

  if (!options.trace) {
    // The timed part is kRestarts equal parts, each against a freshly
    // started server (restarts are not timed): one server start is one
    // draw of where its threads land on the host's CPUs. The 1 s windows of
    // all parts are pooled, and each metric is their fast quartile.
    const bool open = loop == Loop::kOpen;
    const std::size_t parts = options.smoke ? 1 : kRestarts;
    std::vector<double> p50, p99, rows;
    double timed_s = 0.0, late_p99 = 0.0;
    std::size_t requests = 0, malware_rows = 0, malware_missed = 0;
    for (std::size_t part = 0; part < parts; ++part) {
      if (part > 0) start_server(rig, options, loop == Loop::kClosed);
      const Phase phase = workload_phase(
          rig, loop, options, options.seconds / static_cast<double>(parts), part);
      note_phase(phase, options.workload.c_str(), out);
      out.attempted += phase.loop.exchanges.size();
      out.failed += failed_count(phase);
      out.check.merge(phase.check);
      for (const double v : window_quantiles(phase, open, 0.5)) p50.push_back(v);
      for (const double v : window_quantiles(phase, open, 0.99)) p99.push_back(v);
      for (const double v : window_rows_per_s(phase, rig.traffic)) rows.push_back(v);
      timed_s += seconds_between(phase.loop.start, phase.loop.end);
      late_p99 = std::max(late_p99, gen_late_p99_ms(phase));
      requests += phase.loop.exchanges.size();
      malware_rows += phase.malware_rows;
      malware_missed += phase.malware_missed;
    }
    out.notes.push_back(
        "p50/p99/rows_per_s: fast quartiles over " + std::to_string(p50.size()) +
        " windows of 1 s from " + std::to_string(parts) + " server starts; " +
        std::to_string(requests) + " requests; generator p99 lateness " +
        fmt(late_p99) + " ms");
    if (open && late_p99 > kMaxGenLateP99Ms)
      out.check.fail("invalid run: the generator ran " + fmt(late_p99) +
                     " ms late at p99 (bound " + fmt(kMaxGenLateP99Ms) +
                     " ms)");

    Metrics& m = out.metrics;
    m.set("setup_s", median(rig.setup_s), "s");
    m.set("p50_ms", fast_quartile_time(p50), "ms");
    m.set("p99_ms", fast_quartile_time(p99), "ms");
    m.set("rows_per_s", fast_quartile_rate(rows), "rows/s");
    m.set("answered_frac",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::size_t>(1, out.attempted)),
          "fraction");
    m.set("verdict_agree_frac", out.check.agree_frac(), "fraction");
    m.set("attack_s", timed_s, "s");
    m.set("evasion_frac",
          malware_rows == 0 ? 0.0
                            : static_cast<double>(malware_missed) /
                                  static_cast<double>(malware_rows),
          "fraction");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run: the same workload untraced, then traced, for the overhead;
  // per-layer metrics come from the traced half.
  const double half = options.seconds / 2.0;
  const Phase plain = workload_phase(rig, loop, options, half, 1);
  trace.start();
  const Phase traced = workload_phase(rig, loop, options, half, 2);
  trace.stop();
  note_phase(plain, "untraced half", out);
  note_phase(traced, "traced half", out);
  out.attempted = plain.loop.exchanges.size() + traced.loop.exchanges.size();
  out.failed = failed_count(plain) + failed_count(traced);
  out.check = plain.check;
  out.check.merge(traced.check);

  Metrics& m = out.metrics;
  server_metrics(traced, m);
  // The in-process replay: the first seconds of the traced half's schedule
  // (the same seed stream, cut shorter).
  if (loop == Loop::kOpen)
    inproc_metrics(replay_open_inproc(*rig.server, rig.traffic,
                                      poisson_schedule(options.open_rps,
                                                       std::min(half, 3.0),
                                                       seed_stream(options.seed,
                                                                   kScheduleStream + 2))),
                   m);
  else
    inproc_metrics(replay_closed_inproc(*rig.server, rig.traffic,
                                        std::min(half, 3.0)),
                   m);
  rig.server.reset();

  trace.start();
  layer_suite(*rig.world, options, m);
  greybox_layer_probe(*rig.world, options, m, out.check);
  trace.stop();
  setup_layer_metrics(rig.generate_s, rig.target_train_s, m);
  const double basis_plain = overhead_basis(plain, rig.traffic, loop);
  const double basis_traced = overhead_basis(traced, rig.traffic, loop);
  trace.finish(options, basis_traced / basis_plain - 1.0, m, out.check, out.notes);
  return out;
}

}  // namespace

RunResult run_score_open(const Options& options) {
  return run_score(options, Loop::kOpen);
}

RunResult run_score_closed(const Options& options) {
  return run_score(options, Loop::kClosed);
}

void server_layer_probe(World& world, const Options& options, double seconds,
                        Metrics& metrics, OutputCheck& check) {
  const std::unique_ptr<ScoreServer> started = start_score_server(world);
  ScoreServer& server = *started;
  const Traffic traffic = make_traffic(world, /*bulk=*/false, options);
  const std::vector<double> schedule = poisson_schedule(
      options.open_rps, seconds, seed_stream(options.seed, kScheduleStream));
  const Phase phase = run_phase(server, traffic, schedule, 0.0,
                                kOpenConnections, kOpenDeadlineMs);
  check.merge(phase.check);
  server_metrics(phase, metrics);
  inproc_metrics(replay_open_inproc(server, traffic, schedule), metrics);
}

}  // namespace perfbench
