#include "core/security_eval.hpp"

#include <exception>
#include <stdexcept>

#include "attack/transfer.hpp"
#include "data/dataset.hpp"
#include "math/linalg.hpp"
#include "nn/session.hpp"

namespace mev::core {

namespace {

std::vector<double> linspace_grid(double start, double step, double stop) {
  std::vector<double> grid;
  for (double v = start; v <= stop + 1e-9; v += step) grid.push_back(v);
  return grid;
}

}  // namespace

SweepConfig SweepConfig::fig3a() {
  SweepConfig c;
  c.parameter = SweepParameter::kGamma;
  c.grid = linspace_grid(0.0, 0.005, 0.030);
  c.fixed_theta = 0.1;
  return c;
}

SweepConfig SweepConfig::fig3b() {
  SweepConfig c;
  c.parameter = SweepParameter::kTheta;
  c.grid = linspace_grid(0.0, 0.0125, 0.15);
  c.fixed_gamma = 0.025;
  return c;
}

SweepConfig SweepConfig::fig4a() { return fig3a(); }

SweepConfig SweepConfig::fig4b() {
  SweepConfig c = fig3b();
  c.fixed_gamma = 0.005;  // "adding 2 features"
  return c;
}

FeatureSpaceMap FeatureSpaceMap::identity() {
  FeatureSpaceMap map;
  map.to_craft_space = [](const math::Matrix& m) { return m; };
  map.to_target_space = [](const math::Matrix& m) { return m; };
  return map;
}

SweepResult run_security_sweep(const nn::Network& craft_model,
                               const nn::Network& target_model,
                               const math::Matrix& malware_features,
                               const SweepConfig& sweep,
                               const FeatureSpaceMap& map,
                               const math::Matrix* clean_features) {
  if (sweep.grid.empty())
    throw std::invalid_argument("run_security_sweep: empty grid");
  if (map.to_craft_space == nullptr || map.to_target_space == nullptr)
    throw std::invalid_argument("run_security_sweep: null feature-space map");

  SweepResult result;
  result.target_curve.name = "target model";
  result.craft_curve.name = "craft model";
  const char* parameter_name =
      sweep.parameter == SweepParameter::kGamma ? "gamma" : "theta";
  result.target_curve.parameter = parameter_name;
  result.craft_curve.parameter = parameter_name;

  const math::Matrix craft_inputs = map.to_craft_space(malware_features);

  // Grid points run one after another and each point's JSMA shards its
  // rows across the OpenMP threads: the per-point buffers (the crafted
  // copy, the deployed rows) exist once at a time, and equal shards keep
  // the threads evenly loaded where whole points, whose cost grows with
  // the attack strength, would not.
  const std::size_t grid_size = sweep.grid.size();
  result.target_curve.points.resize(grid_size);
  result.craft_curve.points.resize(grid_size);
  if (clean_features != nullptr) result.distances.resize(grid_size);

  // Per-point failure isolation: record what failed, keep what succeeded.
  std::exception_ptr first_error;
  const auto record_failure = [&](std::size_t gi, const char* message) {
    if (first_error == nullptr) first_error = std::current_exception();
    result.failed_points.push_back({gi, sweep.grid[gi], message});
  };
  for (std::size_t gi = 0; gi < grid_size; ++gi) {
    try {
      const double value = sweep.grid[gi];
      attack::JsmaConfig jsma_cfg;
      jsma_cfg.target_class = data::kCleanLabel;
      // Security curves measure detection at a FIXED attack strength, so
      // the full budget is always spent; stopping at the craft model's
      // boundary would understate transferability (the crafted point must
      // sit past the substitute's boundary to cross the target's).
      jsma_cfg.early_stop = false;
      if (sweep.parameter == SweepParameter::kGamma) {
        jsma_cfg.gamma = static_cast<float>(value);
        jsma_cfg.theta = static_cast<float>(sweep.fixed_theta);
      } else {
        jsma_cfg.theta = static_cast<float>(value);
        jsma_cfg.gamma = static_cast<float>(sweep.fixed_gamma);
      }
      const attack::Jsma jsma(jsma_cfg);
      const attack::AttackResult crafted =
          jsma.craft(craft_model, craft_inputs);

      // Deploy in target space.
      const math::Matrix deployed = map.to_target_space(crafted.adversarial);
      const std::vector<int> target_preds =
          nn::predict_in_chunks(target_model, deployed);
      std::size_t detected = 0;
      for (int p : target_preds)
        if (p == data::kMalwareLabel) ++detected;

      eval::CurvePoint target_point;
      target_point.attack_strength = value;
      target_point.detection_rate =
          target_preds.empty()
              ? 0.0
              : static_cast<double>(detected) /
                    static_cast<double>(target_preds.size());
      // Perturbation statistics are reported in TARGET feature space so the
      // white-box and grey-box numbers are comparable.
      double l2_sum = 0.0;
      for (std::size_t i = 0; i < deployed.rows(); ++i)
        l2_sum += math::l2_distance(malware_features.row(i), deployed.row(i));
      target_point.mean_l2 =
          deployed.rows() == 0
              ? 0.0
              : l2_sum / static_cast<double>(deployed.rows());
      target_point.mean_features = crafted.mean_features_changed();
      result.target_curve.points[gi] = target_point;

      eval::CurvePoint craft_point = target_point;
      craft_point.detection_rate = 1.0 - crafted.success_rate();
      craft_point.mean_l2 = crafted.mean_l2();
      result.craft_curve.points[gi] = craft_point;

      if (clean_features != nullptr) {
        eval::DistanceCurvePoint dp;
        dp.attack_strength = value;
        dp.distances = eval::l2_distance_analysis(malware_features, deployed,
                                                  *clean_features);
        result.distances[gi] = dp;
      }
    } catch (const std::exception& e) {
      if (!sweep.isolate_failures) throw;
      record_failure(gi, e.what());
    } catch (...) {
      if (!sweep.isolate_failures) throw;
      record_failure(gi, "unknown error");
    }
  }
  // Nothing usable came back: surface the cause.
  if (result.failed_points.size() == grid_size)
    std::rethrow_exception(first_error);
  return result;
}

}  // namespace mev::core
