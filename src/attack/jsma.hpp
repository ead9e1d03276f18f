// Add-only Jacobian-based Saliency Map Attack (JSMA), the paper's attack
// (§II-B.1, after Papernot et al. 2016).
//
// Per iteration, the saliency map over features j for target class t is
//
//   S(X, t)[j] = 0                       if dF_t/dX_j < 0 or
//                                           sum_{i != t} dF_i/dX_j > 0
//              = dF_t/dX_j * |sum_{i != t} dF_i/dX_j|   otherwise
//
// and the attack perturbs the admissible feature with maximal saliency by
// theta (clamped to 1). For the 2-class softmax used here dF_0/dX = -dF_1/dX,
// so this reduces to "pick the feature with the largest positive gradient
// into the clean class", exactly the paper's description of Eq. 1.
//
// theta  - perturbation magnitude added to each selected feature;
// gamma  - maximum fraction of features that may be perturbed, so the
//          feature budget is round(gamma * M) (gamma = 0.005 with M = 491
//          is the paper's "adding 2 features").
#pragma once

#include <span>

#include "attack/attack.hpp"

namespace mev::attack {

struct JsmaConfig {
  float theta = 0.1f;
  float gamma = 0.025f;
  int target_class = 0;  // clean
  /// Stop perturbing a sample once the craft model classifies it as the
  /// target class (true, default) or always spend the full budget (false).
  bool early_stop = true;
  /// Allow the same feature to be selected again in a later iteration
  /// (re-perturbation). The paper's add-only variant perturbs each feature
  /// at most once; keep false to match.
  bool allow_repeat = false;
};

class Jsma final : public EvasionAttack {
 public:
  explicit Jsma(JsmaConfig config);

  /// Session-based crafting. The sample batch is split into contiguous
  /// shards of at most 32 rows crafted in parallel (OpenMP), one
  /// InferenceSession per shard against the shared read-only network.
  /// Every per-sample quantity is computed row-wise, so the outcome is
  /// identical for any shard count.
  AttackResult craft(const nn::Network& model,
                     const math::Matrix& x) const override;
  std::string name() const override { return "jsma"; }

  const JsmaConfig& config() const noexcept { return config_; }

  /// The per-sample feature budget for a given input width.
  std::size_t feature_budget(std::size_t num_features) const noexcept;

  /// Computes the saliency map for a batch given per-class input
  /// gradients; exposed for tests and for interpretability tooling.
  /// grads[c] is batch x features (dF_c/dX). Inadmissible features get
  /// saliency 0. Accepts the span returned by
  /// InferenceSession::input_gradients_all directly (a std::vector of
  /// matrices converts implicitly).
  static math::Matrix saliency_map(std::span<const math::Matrix> grads,
                                   int target_class);

 private:
  JsmaConfig config_;
};

}  // namespace mev::attack
