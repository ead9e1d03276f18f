// Security-evaluation sweeps: detection rate as a function of attack
// strength (Fig. 3 and Fig. 4) and L2-distance analysis (Fig. 5).
//
// A sweep crafts JSMA adversarial examples on a CRAFT model over a grid of
// gamma (fixed theta) or theta (fixed gamma), then measures detection on
// the TARGET model. For the white-box setting pass the same network as
// both craft and target.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attack/jsma.hpp"
#include "eval/distance_analysis.hpp"
#include "eval/metrics.hpp"
#include "math/matrix.hpp"
#include "nn/network.hpp"

namespace mev::core {

enum class SweepParameter { kGamma, kTheta };

struct SweepConfig {
  SweepParameter parameter = SweepParameter::kGamma;
  std::vector<double> grid;   // swept values
  double fixed_theta = 0.1;   // used when sweeping gamma
  double fixed_gamma = 0.025; // used when sweeping theta

  /// Per-point failure isolation: a grid point that throws is recorded in
  /// SweepResult::failed_points (its curve entries stay zero) instead of
  /// aborting the whole sweep. If EVERY point fails the first error is
  /// rethrown — a fully failed sweep is fatal either way. Set to false to
  /// rethrow the first failure immediately.
  bool isolate_failures = true;

  /// Paper Fig. 3(a) grid: theta=0.1, gamma in [0 : 0.005 : 0.030].
  static SweepConfig fig3a();
  /// Paper Fig. 3(b) grid: gamma=0.025, theta in [0 : 0.0125 : 0.15].
  static SweepConfig fig3b();
  /// Paper Fig. 4(a) grid: theta=0.1, gamma swept (as 3a).
  static SweepConfig fig4a();
  /// Paper Fig. 4(b) grid: gamma=0.005 (2 features), theta swept (as 3b).
  static SweepConfig fig4b();
};

struct SweepResult {
  /// Detection rate of the TARGET model on the crafted examples, per grid
  /// point (the paper's security evaluation curve).
  eval::SecurityCurve target_curve;
  /// Detection rate of the CRAFT model on its own examples (equals the
  /// target curve in the white-box setting).
  eval::SecurityCurve craft_curve;
  /// Fig. 5 distance analysis per grid point (only filled when clean
  /// features are supplied).
  std::vector<eval::DistanceCurvePoint> distances;

  /// Grid points that threw (only populated with isolate_failures).
  struct FailedPoint {
    std::size_t index = 0;        // position in SweepConfig::grid
    double attack_strength = 0.0; // the swept value at that point
    std::string message;
  };
  std::vector<FailedPoint> failed_points;
};

/// `craft_features_of` maps TARGET-space feature rows to CRAFT-space rows
/// (identity for white-box / exact-feature grey-box; a re-extraction for
/// the binary-feature attacker). The crafted CRAFT-space perturbation is
/// mapped back with `target_features_of` before scoring the target.
/// Both maps must be pure functions of their input (true of identity() and
/// the grey-box maps, which only read captured state).
struct FeatureSpaceMap {
  std::function<math::Matrix(const math::Matrix&)> to_craft_space;
  std::function<math::Matrix(const math::Matrix&)> to_target_space;

  static FeatureSpaceMap identity();
};

/// Runs the γ/θ sweep. Both models are read-only. Grid points run in
/// order; each point's JSMA shards its rows across the OpenMP threads,
/// each shard with its own inference session against the shared networks.
SweepResult run_security_sweep(
    const nn::Network& craft_model, const nn::Network& target_model,
    const math::Matrix& malware_features, const SweepConfig& sweep,
    const FeatureSpaceMap& map = FeatureSpaceMap::identity(),
    const math::Matrix* clean_features = nullptr);

}  // namespace mev::core
