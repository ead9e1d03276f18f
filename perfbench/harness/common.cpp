#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/api_vocab.hpp"
#include "obs/build_info.hpp"

namespace perfbench {

using namespace mev;

// ---- Metrics ---------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           fmt(entries_[i].value) + ", \"unit\": \"" + entries_[i].unit +
           "\"}";
  }
  return out + "}";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi]) || std::isinf(v[lo])) return v[hi];
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ---- Output checks ---------------------------------------------------------

void OutputCheck::verdict(const Reference& ref, std::size_t row, bool malware,
                          double confidence) {
  ++rows_;
  const int cls = malware ? data::kMalwareLabel : data::kCleanLabel;
  if (cls == ref.predicted_class.at(row)) ++agree_;
  max_dconf_ = std::max(max_dconf_,
                        std::fabs(confidence - ref.malware_confidence.at(row)));
}

void OutputCheck::fail(const std::string& what) {
  // The first few say what broke; more would only flood the output.
  if (failures_.size() < 16) failures_.push_back(what);
}

void OutputCheck::merge(const OutputCheck& other) {
  rows_ += other.rows_;
  agree_ += other.agree_;
  max_dconf_ = std::max(max_dconf_, other.max_dconf_);
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

bool OutputCheck::ok() const noexcept {
  return failures_.empty() && agree_ == rows_ &&
         max_dconf_ <= kConfidenceTolerance;
}

// ---- The seeded world ------------------------------------------------------

math::Matrix World::test_rows(std::size_t n) const {
  const math::Matrix& test = bundle.test.counts;
  math::Matrix rows(n, test.cols());
  for (std::size_t r = 0; r < n; ++r) rows.set_row(r, test.row(r % test.rows()));
  return rows;
}

std::uint64_t seed_stream(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of the pair, so nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::unique_ptr<World> build_world() {
  auto world = std::make_unique<World>();
  world->config = core::ExperimentConfig::fast();
  const auto& vocab = data::ApiVocab::instance();

  auto start = Clock::now();
  {
    LayerSpan span("data.generate_bundle");
    world->generator = std::make_unique<data::GenerativeModel>(
        vocab, data::GenerativeConfig{});
    math::Rng rng(world->config.seed);
    world->bundle =
        world->generator->generate_bundle(world->config.dataset_spec(), rng);
  }
  world->generate_s = seconds_since(start);

  start = Clock::now();
  {
    LayerSpan span("core.train_detector");
    world->trained = core::train_detector(
        world->bundle, world->config.target_architecture(),
        world->config.target_training(), vocab);
  }
  world->target_train_s = seconds_since(start);
  return world;
}

// ---- Bench-side layer spans -------------------------------------------------

namespace {
obs::Tracer* g_tracer = nullptr;
thread_local obs::TraceContext t_parent{};
}  // namespace

void install_tracer(obs::Tracer* tracer) { g_tracer = tracer; }
obs::Tracer* installed_tracer() { return g_tracer; }

LayerSpan::LayerSpan(const char* name) : saved_parent_(t_parent) {
  if (g_tracer == nullptr) return;
  span_ = g_tracer->span(name, t_parent);
  t_parent = span_.context();
}

LayerSpan::~LayerSpan() {
  span_.finish();
  t_parent = saved_parent_;
}

void emit_span(const char* name, obs::TraceContext parent,
               std::uint64_t start_us, std::uint64_t end_us) {
  if (g_tracer == nullptr) return;
  g_tracer->complete_span(name, parent, start_us, std::max(start_us, end_us));
}

namespace {
mev::obs::TracerConfig trace_session_config() {
  mev::obs::TracerConfig config;
  config.ring_capacity = 1 << 18;
  config.enabled = true;
  return config;
}
}  // namespace

TraceSession::TraceSession() : tracer_(trace_session_config()) {}
TraceSession::~TraceSession() { stop(); }

void TraceSession::start() { install_tracer(&tracer_); }
void TraceSession::stop() {
  if (installed_tracer() == &tracer_) install_tracer(nullptr);
}

void TraceSession::finish(const Options& options, double overhead_frac,
                          Metrics& metrics, OutputCheck& check,
                          std::vector<std::string>& notes) {
  stop();
  const auto events = tracer_.recent(tracer_.event_count());
  const auto self = self_time_by_layer(events);
  for (const char* layer : kTracedLayers) {
    const auto it = self.find(layer);
    metrics.set(std::string("trace.self_s.") + layer,
                it == self.end() ? 0.0 : it->second, "s");
  }
  metrics.set("obs.spans_dropped", static_cast<double>(tracer_.dropped()),
              "count");
  if (tracer_.dropped() != 0)
    check.fail("the tracer dropped " + std::to_string(tracer_.dropped()) +
               " spans");
  metrics.set("bench.trace_overhead_frac", overhead_frac, "fraction");
  const std::string path =
      options.out_dir + "/trace_" + options.workload + ".json";
  std::ofstream file(path);
  tracer_.write_chrome_trace(file);
  notes.push_back("chrome trace: " + path + " (" +
                  std::to_string(events.size()) + " spans)");
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<obs::TraceEvent>& events) {
  // Children's intervals per parent span, merged to their union.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const obs::TraceEvent& e : events)
    if (e.phase == 'X' && e.parent_span_id != 0)
      children[e.parent_span_id].emplace_back(e.ts_us, e.ts_us + e.dur_us);

  std::map<std::string, double> self_us;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'X' || e.name == nullptr) continue;
    const std::uint64_t begin = e.ts_us, end = e.ts_us + e.dur_us;
    std::uint64_t covered = 0;
    const auto it = children.find(e.span_id);
    if (e.span_id != 0 && it != children.end()) {
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      std::uint64_t cursor = begin;
      for (const auto& [s, t] : spans) {
        const std::uint64_t lo = std::max(s, cursor);
        const std::uint64_t hi = std::min(t, end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const std::string name = e.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_us[layer] += static_cast<double>(e.dur_us - std::min(covered, e.dur_us));
  }
  std::map<std::string, double> self_s;
  for (const auto& [layer, us] : self_us) self_s[layer] = us * 1e-6;
  return self_s;
}

// ---- Provenance ------------------------------------------------------------

const cpu_set_t& process_cpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) == 0) {
      CPU_ZERO(&set);
      const unsigned n = std::max(1u, std::thread::hardware_concurrency());
      for (unsigned i = 0; i < n && i < CPU_SETSIZE; ++i) CPU_SET(i, &set);
    }
    return set;
  }();
  return cpus;
}

std::size_t cpu_count() {
  return static_cast<std::size_t>(CPU_COUNT(&process_cpus()));
}

namespace {
int last_cpu() {
  int last = 0;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &process_cpus())) last = i;
  return last;
}
}  // namespace

cpu_set_t client_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(last_cpu(), &set);
  return set;
}

cpu_set_t server_cpus() {
  cpu_set_t set = process_cpus();
  if (CPU_COUNT(&set) > 1) CPU_CLR(last_cpu(), &set);
  return set;
}

PinThread::PinThread(const cpu_set_t& cpus) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) saved_ = process_cpus();
  sched_setaffinity(0, sizeof(cpus), &cpus);
}

PinThread::~PinThread() { sched_setaffinity(0, sizeof(saved_), &saved_); }

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_omp_threads([[maybe_unused]] int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}
}  // namespace

std::string provenance_json(const std::string& source_digest) {
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  std::ostringstream os;
  os << "{\"nproc\": " << cpu_count() << ", \"omp_threads\": " << omp_threads()
     << ", \"omp_num_threads_env\": "
     << json_string(omp_env == nullptr ? "unset" : omp_env)
     << ", \"git_sha\": " << json_string(obs::build_git_sha())
     << ", \"build_flags\": " << json_string(obs::build_flags())
     << ", \"source_digest\": " << json_string(source_digest)
     << ", \"service_workers\": " << kServiceWorkers
     << ", \"frontend_worker_threads\": " << kFrontendThreads << "}";
  return os.str();
}

}  // namespace perfbench
