// greybox_transfer: the paper's grey-box pipeline in process (Fig. 4(a)):
// train a substitute on the attacker's own data with the exact features,
// sweep JSMA over the gamma grid at theta = 0.1, and query the target with
// the top-gamma adversarial rows as 1-row queries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "attack/jsma.hpp"
#include "attack/random_attack.hpp"
#include "core/greybox.hpp"
#include "core/security_eval.hpp"
#include "core/substitute.hpp"
#include "features/transform.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mev;

namespace {

/// Detection may rise this much from one gamma to the next before the
/// curve counts as not non-increasing (finite-sample noise).
constexpr double kMonotoneSlack = 0.02;
/// Query passes over the attacked rows per pipeline run, half before and
/// half after the attack: about 5000 64-row queries, a second in all.
/// Latency is summarised per window of kWindowQueries consecutive queries
/// (p99 then has 10 beyond it), and the fast quartile over windows is
/// reported.
constexpr std::size_t kQueryPasses = 720;
constexpr std::size_t kWindowQueries = 1000;
constexpr std::uint64_t kAttackerStream = 0x4772657942ULL;  // "GreyB"
constexpr std::uint64_t kRandomControlSeed = 99;
constexpr std::uint64_t kAttackedRowsStream = 3;

/// The attacked rows and the attacker's own corpus.
struct Attack {
  math::Matrix malware_counts;    // target test malware, capped
  math::Matrix malware_features;  // the same rows in target feature space
  data::CountDataset attacker_data;
};

/// The run's seed picks which test malware rows are attacked; the attacker's
/// corpus is a fixed independent draw, as in the grey-box experiments.
Attack make_attack(World& world, std::uint64_t seed) {
  Attack a;
  std::vector<std::size_t> rows = world.bundle.test.indices_of(data::kMalwareLabel);
  math::Rng pick(seed_stream(seed, kAttackedRowsStream));
  pick.shuffle(rows);
  rows.resize(std::min(rows.size(), world.config.attack_sample_cap()));
  std::sort(rows.begin(), rows.end());
  a.malware_counts = world.bundle.test.counts.gather_rows(rows);
  a.malware_features = world.trained.test_features.gather_rows(rows);
  LayerSpan span("data.generate_dataset");
  math::Rng rng(world.config.seed ^ kAttackerStream);
  const auto spec = world.config.dataset_spec();
  a.attacker_data = world.generator->generate_dataset(
      spec.train_clean, spec.train_malware, rng);
  return a;
}

double top_gamma() { return core::SweepConfig::fig4a().grid.back(); }

attack::JsmaConfig top_jsma_config() {
  // The sweep's own settings at its strongest point.
  attack::JsmaConfig config;
  config.target_class = data::kCleanLabel;
  config.early_stop = false;
  config.theta = static_cast<float>(core::SweepConfig::fig4a().fixed_theta);
  config.gamma = static_cast<float>(top_gamma());
  return config;
}

/// One timed run of the pipeline.
struct Iteration {
  double substitute_train_s = 0.0, sweep_s = 0.0, craft_s = 0.0,
         score_s = 0.0, total_s = 0.0;
  std::optional<core::SubstituteResult> substitute;
  core::SweepResult sweep;
  attack::AttackResult crafted;
  math::Matrix deployed;                 // top-gamma rows, target space
  std::vector<core::Verdict> verdicts;   // the target's, first pass
  std::vector<core::Verdict> clean_verdicts;  // on the unmodified rows
  std::vector<double> query_ms;          // per query, in order
  std::size_t detected = 0;
};

/// Sends `rows` to the target `passes` times as 64-row queries (kBulkRows,
/// the bulk request size of the HTTP API; the last query of a pass wraps
/// around to the first rows), appending each query's latency to
/// `query_ms`. Returns each row's verdict from the first pass (none when
/// `passes` is 0).
std::vector<core::Verdict> query_target(core::MalwareDetector& target,
                                        const math::Matrix& rows,
                                        std::size_t passes,
                                        std::vector<double>& query_ms) {
  LayerSpan span("core.scan_features");
  const std::size_t n = rows.rows();
  const std::size_t per_pass = (n + kBulkRows - 1) / kBulkRows;
  std::vector<math::Matrix> queries;
  std::vector<std::size_t> picked(kBulkRows);
  for (std::size_t q = 0; q < per_pass; ++q) {
    for (std::size_t k = 0; k < kBulkRows; ++k) picked[k] = (q * kBulkRows + k) % n;
    queries.push_back(rows.gather_rows(picked));
  }
  nn::InferenceSession session = target.make_session(kBulkRows);
  std::vector<core::Verdict> verdicts(passes == 0 ? 0 : n);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t q = 0; q < per_pass; ++q) {
      const auto t0 = Clock::now();
      const std::vector<core::Verdict> v = target.scan_features(session, queries[q]);
      query_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (pass > 0) continue;
      for (std::size_t k = 0; k < kBulkRows && q * kBulkRows + k < n; ++k)
        verdicts[q * kBulkRows + k] = v[k];
    }
  }
  return verdicts;
}

Iteration run_iteration(World& world, const Attack& attack,
                        std::size_t passes) {
  Iteration it;
  core::MalwareDetector& target = world.detector();
  const auto start = Clock::now();
  {
    LayerSpan span("core.train_substitute_exact_features");
    it.substitute.emplace(core::train_substitute_exact_features(
        attack.attacker_data, world.config, target.pipeline()));
  }
  const auto trained = Clock::now();
  // The attacker queries the target in bulk: first with the malware it is
  // about to modify, later with the adversarial rows. The two blocks,
  // seconds apart, sample the shared host at two times.
  it.clean_verdicts = query_target(target, attack.malware_features,
                                   passes / 2, it.query_ms);
  const auto queried = Clock::now();
  const auto& attacker_transform = dynamic_cast<const features::CountTransform&>(
      it.substitute->pipeline.transform());
  const core::FeatureSpaceMap map = core::make_greybox_count_map(
      attacker_transform, target.pipeline(), attack.malware_counts);
  {
    LayerSpan span("core.run_security_sweep");
    it.sweep = core::run_security_sweep(*it.substitute->network,
                                        target.network(),
                                        attack.malware_features,
                                        core::SweepConfig::fig4a(), map);
  }
  const auto swept = Clock::now();
  // The sweep keeps only its curves, so the top-gamma rows are crafted
  // again to be sent to the target.
  {
    LayerSpan span("attack.jsma_craft");
    it.crafted = attack::Jsma(top_jsma_config())
                     .craft(*it.substitute->network,
                            map.to_craft_space(attack.malware_features));
  }
  it.deployed = map.to_target_space(it.crafted.adversarial);
  const auto crafted = Clock::now();
  it.verdicts = query_target(target, it.deployed, passes - passes / 2,
                             it.query_ms);
  const auto end = Clock::now();
  for (const core::Verdict& v : it.verdicts) it.detected += v.is_malware() ? 1 : 0;
  it.substitute_train_s = seconds_between(start, trained);
  it.sweep_s = seconds_between(queried, swept);
  it.craft_s = seconds_between(swept, crafted);
  it.score_s = seconds_between(trained, queried) + seconds_between(crafted, end);
  it.total_s = seconds_between(start, end);
  return it;
}

double evasion(const Iteration& it) {
  return it.verdicts.empty() ? 0.0
                             : 1.0 - static_cast<double>(it.detected) /
                                         static_cast<double>(it.verdicts.size());
}

/// The research checks on one iteration's output.
void check_iteration(World& world, const Attack& attack, const Iteration& it,
                     const Options& options, OutputCheck& check,
                     std::vector<std::string>& notes) {
  core::MalwareDetector& target = world.detector();
  const auto& points = it.sweep.target_curve.points;
  for (const auto& failed : it.sweep.failed_points)
    check.fail("sweep point gamma=" + fmt(failed.attack_strength) +
               " failed: " + failed.message);
  for (std::size_t i = 1; i < points.size(); ++i)
    if (points[i].detection_rate > points[i - 1].detection_rate + kMonotoneSlack)
      check.fail("detection rises from gamma=" + fmt(points[i - 1].attack_strength) +
                 " to gamma=" + fmt(points[i].attack_strength));

  // gamma = 0 changes nothing: its detection is the clean detection.
  nn::InferenceSession session = target.make_session();
  std::size_t clean_detected = 0;
  for (const core::Verdict& v : target.scan_features(session, attack.malware_features))
    clean_detected += v.is_malware() ? 1 : 0;
  const double clean = static_cast<double>(clean_detected) /
                       static_cast<double>(attack.malware_features.rows());
  // Curve points are counts over the attacked rows; compare them as counts.
  const auto count_of = [&](double rate) {
    return static_cast<std::size_t>(std::llround(
        rate * static_cast<double>(attack.malware_features.rows())));
  };
  if (points.empty() || count_of(points.front().detection_rate) != clean_detected)
    check.fail("gamma=0 detection differs from clean detection " + fmt(clean));

  // The target's verdicts on the adversarial rows: against the independent
  // reference, and against the sweep's own top point.
  const Reference ref = reference_verdicts(target.network(), it.deployed,
                                           options.corrupt_reference);
  for (std::size_t r = 0; r < it.verdicts.size(); ++r)
    check.verdict(ref, r, it.verdicts[r].is_malware(),
                  it.verdicts[r].malware_confidence);
  if (!it.clean_verdicts.empty()) {
    const Reference clean_ref = reference_verdicts(
        target.network(), attack.malware_features, options.corrupt_reference);
    for (std::size_t r = 0; r < it.clean_verdicts.size(); ++r)
      check.verdict(clean_ref, r, it.clean_verdicts[r].is_malware(),
                    it.clean_verdicts[r].malware_confidence);
  }
  if (points.empty() || count_of(points.back().detection_rate) != it.detected)
    check.fail("queried top-gamma detection differs from the sweep's");

  // JSMA must beat adding the same number of random features.
  const auto& attacker_transform = dynamic_cast<const features::CountTransform&>(
      it.substitute->pipeline.transform());
  const core::FeatureSpaceMap map = core::make_greybox_count_map(
      attacker_transform, target.pipeline(), attack.malware_counts);
  attack::RandomAdditionConfig random_config;
  random_config.theta = top_jsma_config().theta;
  random_config.gamma = top_jsma_config().gamma;
  random_config.target_class = data::kCleanLabel;
  random_config.seed = kRandomControlSeed;
  const attack::AttackResult random =
      attack::RandomAddition(random_config)
          .craft(*it.substitute->network,
                 map.to_craft_space(attack.malware_features));
  std::size_t random_detected = 0;
  for (const core::Verdict& v :
       target.scan_features(session, map.to_target_space(random.adversarial)))
    random_detected += v.is_malware() ? 1 : 0;
  const double random_detection =
      static_cast<double>(random_detected) /
      static_cast<double>(attack.malware_features.rows());
  const double jsma_detection = 1.0 - evasion(it);
  if (!(jsma_detection < random_detection))
    check.fail("JSMA detection " + fmt(jsma_detection) +
               " is not below the random control " + fmt(random_detection));

  char line[256];
  std::snprintf(line, sizeof(line),
                "gamma 0..%.3f detection %.4f..%.4f (clean %.4f), random "
                "control %.4f, %zu verdicts checked, max |dconf| %.3g",
                top_gamma(), points.empty() ? 0.0 : points.front().detection_rate,
                jsma_detection, clean, random_detection,
                it.verdicts.size() + it.clean_verdicts.size(),
                check.max_dconf());
  notes.push_back(line);
}

void attack_layer_metrics(const Iteration& it, Metrics& m) {
  m.set("core.substitute_train_s", it.substitute_train_s, "s");
  m.set("core.sweep_s", it.sweep_s, "s");
  m.set("attack.craft_s", it.craft_s, "s");
  m.set("attack.craft_success_frac", it.crafted.success_rate(), "fraction");
  m.set("attack.features_changed_mean", it.crafted.mean_features_changed(),
        "count");
}

}  // namespace

RunResult run_greybox(const Options& options) {
  RunResult out;
  std::unique_ptr<World> world;
  Attack attack;
  std::vector<double> setup_s, generate_s, target_train_s;
  TraceSession trace;
  if (options.trace) trace.start();  // the traced run records set-up too
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    const auto start = Clock::now();
    world = build_world();
    attack = make_attack(*world, options.seed);
    setup_s.push_back(seconds_since(start));
    generate_s.push_back(world->generate_s);
    target_train_s.push_back(world->target_train_s);
  }
  trace.stop();

  // Runs whole pipeline runs while one more, as long as the last, still
  // ends within `seconds` (at least one).
  const auto iterate = [&](double seconds) {
    std::vector<Iteration> its;
    const auto start = Clock::now();
    do {
      its.push_back(run_iteration(*world, attack, kQueryPasses));
    } while (seconds_since(start) + its.back().total_s <= seconds);
    return its;
  };
  const auto check_all = [&](const std::vector<Iteration>& its) {
    check_iteration(*world, attack, its.back(), options, out.check, out.notes);
    for (const Iteration& it : its)
      if (evasion(it) != evasion(its.front()))
        out.check.fail("evasion differs between identical iterations");
  };
  const auto tally = [&](const std::vector<Iteration>& its) {
    for (const Iteration& it : its) {
      out.attempted += it.sweep.target_curve.points.size();
      out.attempted += it.query_ms.size();
      out.failed += it.sweep.failed_points.size();
    }
  };
  std::vector<double> total_s;

  if (!options.trace) {
    const std::vector<Iteration> its = iterate(options.seconds);
    check_all(its);
    tally(its);
    std::vector<double> p50, p99, rate;
    std::size_t queries = 0;
    for (const Iteration& it : its) {
      total_s.push_back(it.total_s);
      const std::vector<double>& lat = it.query_ms;
      for (std::size_t w = 0; w + kWindowQueries <= lat.size(); w += kWindowQueries) {
        const std::vector<double> chunk(lat.begin() + w,
                                        lat.begin() + w + kWindowQueries);
        p50.push_back(quantile(chunk, 0.5));
        p99.push_back(quantile(chunk, 0.99));
        double busy_ms = 0.0;
        for (const double ms : chunk) busy_ms += ms;
        rate.push_back(static_cast<double>(kWindowQueries * kBulkRows) * 1000.0 /
                       busy_ms);
      }
      queries += lat.size();
    }
    std::string runs = std::to_string(its.size()) +
                       " pipeline runs, train+sweep+craft+query seconds:";
    for (const Iteration& it : its) {
      char run[96];
      std::snprintf(run, sizeof(run), " %.3f+%.3f+%.3f+%.3f",
                    it.substitute_train_s, it.sweep_s, it.craft_s, it.score_s);
      runs += run;
    }
    out.notes.push_back(runs);
    out.notes.push_back(std::to_string(queries) + " 64-row target queries; p50/p99/rows_per_s " +
                        "are fast quartiles over " + std::to_string(p50.size()) +
                        " windows of " + std::to_string(kWindowQueries) +
                        " queries");
    Metrics& m = out.metrics;
    m.set("setup_s", median(setup_s), "s");
    m.set("p50_ms", fast_quartile_time(p50), "ms");
    m.set("p99_ms", fast_quartile_time(p99), "ms");
    m.set("rows_per_s", fast_quartile_rate(rate), "rows/s");
    m.set("answered_frac",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::size_t>(1, out.attempted)),
          "fraction");
    m.set("verdict_agree_frac", out.check.agree_frac(), "fraction");
    m.set("attack_s", fast_quartile_time(total_s), "s");
    m.set("evasion_frac", evasion(its.front()), "fraction");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const double half = options.seconds / 2.0;
  const std::vector<Iteration> plain = iterate(half);
  trace.start();
  const std::vector<Iteration> traced = iterate(half);
  trace.stop();
  check_all(traced);
  tally(plain);
  tally(traced);
  Metrics& m = out.metrics;
  attack_layer_metrics(traced.back(), m);
  trace.start();
  server_layer_probe(*world, options, std::min(half, 3.0), m, out.check);
  layer_suite(*world, options, m);
  trace.stop();
  setup_layer_metrics(generate_s, target_train_s, m);
  std::vector<double> plain_s, traced_s;
  for (const Iteration& it : plain) plain_s.push_back(it.total_s);
  for (const Iteration& it : traced) traced_s.push_back(it.total_s);
  trace.finish(options, median(traced_s) / median(plain_s) - 1.0, m, out.check, out.notes);
  return out;
}

void greybox_layer_probe(World& world, const Options& options,
                         Metrics& metrics, OutputCheck& check) {
  const Attack attack = make_attack(world, options.seed);
  const Iteration it = run_iteration(world, attack, 1);
  std::vector<std::string> notes;
  check_iteration(world, attack, it, options, check, notes);
  attack_layer_metrics(it, metrics);
}

}  // namespace perfbench
