#include "attack/jsma.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "math/linalg.hpp"
#include "nn/session.hpp"
#include "obs/obs.hpp"

namespace mev::attack {

namespace {

/// Destination-passing saliency kernel so the craft loop can reuse one
/// buffer across budget iterations.
void saliency_map_into(std::span<const math::Matrix> grads, int target_class,
                       math::Matrix& saliency) {
  if (grads.empty()) throw std::invalid_argument("saliency_map: no gradients");
  const auto t = static_cast<std::size_t>(target_class);
  if (t >= grads.size())
    throw std::invalid_argument("saliency_map: target class out of range");
  const std::size_t rows = grads[0].rows(), cols = grads[0].cols();
  saliency.resize(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const float target_grad = grads[t](i, j);
      float other = 0.0f;
      for (std::size_t c = 0; c < grads.size(); ++c)
        if (c != t) other += grads[c](i, j);
      // Admissible iff increasing X_j raises the target class and lowers
      // the others.
      saliency(i, j) =
          (target_grad < 0.0f || other > 0.0f) ? 0.0f
                                               : target_grad * std::abs(other);
    }
  }
}

/// Runs the full budget loop for rows [begin, end). All writes land in
/// row-disjoint slices of the shared output buffers, so shards can run
/// concurrently without synchronization (`evaded` is uint8_t, not
/// vector<bool>, precisely so adjacent shards never share a word).
void craft_rows(const JsmaConfig& config, std::size_t budget,
                nn::InferenceSession& session, const math::Matrix& x,
                std::size_t begin, std::size_t end, math::Matrix& adversarial,
                std::uint8_t* evaded, std::size_t* features_changed,
                double* l2) {
  const std::size_t m = x.cols();
  const std::size_t count = end - begin;

  // Per-sample bookkeeping, indexed locally (0..count).
  std::vector<std::vector<bool>> perturbed(count, std::vector<bool>(m, false));
  std::vector<bool> active(count, true);
  std::vector<std::size_t> rows;  // absolute row indices, reused
  math::Matrix batch;             // gathered active rows, reused
  math::Matrix saliency;          // reused across iterations

  if (config.early_stop) {
    rows.resize(count);
    std::iota(rows.begin(), rows.end(), begin);
    math::gather_rows_into(adversarial, rows, batch);
    const auto preds = session.predict(batch);
    for (std::size_t i = 0; i < count; ++i) {
      if (preds[i] == config.target_class) {
        evaded[begin + i] = 1;
        active[i] = false;
      }
    }
  }

  const bool binary = session.network().output_dim() == 2;

  for (std::size_t iter = 0; iter < budget; ++iter) {
    // Gather the still-active rows into one batch for a single
    // forward/backward sweep.
    rows.clear();
    for (std::size_t i = 0; i < count; ++i)
      if (active[i]) rows.push_back(begin + i);
    if (rows.empty()) break;

    math::gather_rows_into(adversarial, rows, batch);
    if (binary) {
      // Binary classifier: the off-target probability gradient is the
      // exact negation of the target's (P0 + P1 = 1), so one backward
      // pass suffices and the saliency reduces to max(g, 0)^2.
      const math::Matrix& g =
          session.input_gradient(batch, config.target_class);
      saliency.resize(g.rows(), g.cols());
      for (std::size_t k = 0; k < g.size(); ++k) {
        const float v = g.data()[k];
        saliency.data()[k] = v > 0.0f ? v * v : 0.0f;
      }
    } else {
      const auto grads = session.input_gradients_all(batch);
      saliency_map_into(grads, config.target_class, saliency);
    }

    // Early-stop: the gradient sweep above ran a forward pass on the
    // current (post-previous-perturbation) values, so its logits double
    // as the evasion check that used to cost a separate predict per
    // iteration. Iteration 0 was already checked before the loop.
    if (config.early_stop && iter > 0) {
      const math::Matrix& logits = session.logits();
      for (std::size_t bi = 0; bi < rows.size(); ++bi) {
        if (static_cast<int>(math::argmax(logits.row(bi))) ==
            config.target_class)
          active[rows[bi] - begin] = false;
      }
    }

    for (std::size_t bi = 0; bi < rows.size(); ++bi) {
      const std::size_t row = rows[bi];
      const std::size_t i = row - begin;
      if (!active[i]) continue;  // evaded on this iteration's forward
      // Pick the admissible feature with the maximum saliency. Add-only:
      // a feature already at 1 cannot be increased further.
      float best = 0.0f;
      std::size_t best_j = m;  // sentinel: none admissible
      for (std::size_t j = 0; j < m; ++j) {
        if (!config.allow_repeat && perturbed[i][j]) continue;
        if (adversarial(row, j) >= 1.0f) continue;
        const float s = saliency(bi, j);
        if (s > best) {
          best = s;
          best_j = j;
        }
      }
      if (best_j == m) {
        active[i] = false;  // saliency map exhausted
        continue;
      }
      float& value = adversarial(row, best_j);
      value = std::min(1.0f, value + config.theta);
      if (!perturbed[i][best_j]) {
        perturbed[i][best_j] = true;
        ++features_changed[row];
      }
    }
  }

  // Final verdicts and perturbation sizes for the whole shard.
  rows.resize(count);
  std::iota(rows.begin(), rows.end(), begin);
  math::gather_rows_into(adversarial, rows, batch);
  const auto preds = session.predict(batch);
  for (std::size_t i = 0; i < count; ++i) {
    evaded[begin + i] = preds[i] == config.target_class ? 1 : 0;
    l2[begin + i] =
        math::l2_distance(x.row(begin + i), adversarial.row(begin + i));
  }
}

}  // namespace

Jsma::Jsma(JsmaConfig config) : config_(config) {
  if (config_.theta < 0.0f)
    throw std::invalid_argument("Jsma: theta must be non-negative");
  if (config_.gamma < 0.0f || config_.gamma > 1.0f)
    throw std::invalid_argument("Jsma: gamma must be in [0, 1]");
}

std::size_t Jsma::feature_budget(std::size_t num_features) const noexcept {
  return static_cast<std::size_t>(
      std::lround(static_cast<double>(config_.gamma) *
                  static_cast<double>(num_features)));
}

math::Matrix Jsma::saliency_map(std::span<const math::Matrix> grads,
                                int target_class) {
  math::Matrix saliency;
  saliency_map_into(grads, target_class, saliency);
  return saliency;
}

AttackResult Jsma::craft(const nn::Network& model,
                         const math::Matrix& x) const {
  const std::size_t n = x.rows(), m = x.cols();
  AttackResult result;
  result.adversarial = x;
  result.evaded.assign(n, false);
  result.features_changed.assign(n, 0);
  result.l2_perturbation.assign(n, 0.0);
  const std::size_t budget = feature_budget(m);
  // Ambient sinks are resolved HERE, on the calling thread: thread-local
  // Scope overrides do not propagate into the OpenMP shards below, so the
  // tracer pointer is captured and handed to each shard explicitly.
  obs::Tracer* tracer = obs::current_tracer();
  obs::MetricsRegistry* registry = obs::current_registry();
  obs::Span craft_span = obs::span(tracer, "mev.attack.jsma.craft");
  craft_span.arg("samples", static_cast<double>(n));
  craft_span.arg("budget", static_cast<double>(budget));
  if (n == 0 || budget == 0 || config_.theta == 0.0f) {
    // Zero-strength attack: evaded iff already misclassified.
    const std::vector<int> preds = nn::predict_in_chunks(model, x);
    for (std::size_t i = 0; i < n; ++i)
      result.evaded[i] = preds[i] == config_.target_class;
    return result;
  }

  // Contiguous sample shards, one session per shard, one shared read-only
  // network. Results are shard-count-invariant (all math is row-wise).
  // Shards hold at most kMaxShardRows rows, so a shard's session and
  // buffers stay small however many rows there are, and their number is a
  // multiple of the thread count so the threads get equal work.
  constexpr std::size_t kMaxShardRows = 32;
  std::size_t threads = 1;
#ifdef _OPENMP
  threads = static_cast<std::size_t>(std::max(1, omp_get_max_threads()));
#endif
  const std::size_t round_rows = threads * kMaxShardRows;
  const std::size_t shards =
      std::min(n, threads * ((n + round_rows - 1) / round_rows));
  std::vector<std::uint8_t> evaded(n, 0);
  std::exception_ptr error;
#ifdef _OPENMP
#pragma omp parallel for schedule(static, 1) if (shards > 1)
#endif
  for (std::size_t s = 0; s < shards; ++s) {
    try {
      const std::size_t begin = s * n / shards;
      const std::size_t end = (s + 1) * n / shards;
      if (begin == end) continue;
      obs::Span shard_span = obs::span(tracer, "mev.attack.jsma.shard");
      shard_span.arg("rows", static_cast<double>(end - begin));
      nn::InferenceSession session(model, end - begin);
      craft_rows(config_, budget, session, x, begin, end, result.adversarial,
                 evaded.data(), result.features_changed.data(),
                 result.l2_perturbation.data());
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical
#endif
      if (error == nullptr) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);

  result.evaded.assign(evaded.begin(), evaded.end());

  // Per-sample crafting metrics, folded in on the calling thread after the
  // shards finish (no contention on the registry from the parallel loop).
  obs::Counter samples_counter = registry->counter(
      "mev.attack.jsma.samples", "samples submitted to JSMA crafting");
  obs::Counter evaded_counter = registry->counter(
      "mev.attack.jsma.evaded", "samples misclassified after crafting");
  obs::Counter flips_counter = registry->counter(
      "mev.attack.jsma.features_flipped", "total features perturbed");
  obs::Histogram flips_histogram = registry->histogram(
      "mev.attack.jsma.features_changed", "features perturbed per sample");
  std::size_t evaded_total = 0, flips_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    evaded_total += result.evaded[i] ? 1 : 0;
    flips_total += result.features_changed[i];
    flips_histogram.record(result.features_changed[i]);
  }
  samples_counter.inc(n);
  evaded_counter.inc(evaded_total);
  flips_counter.inc(flips_total);
  craft_span.arg("evaded", static_cast<double>(evaded_total));
  return result;
}

}  // namespace mev::attack
