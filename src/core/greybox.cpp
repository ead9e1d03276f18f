#include "core/greybox.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mev::core {

namespace {

void require_same_shape(const math::Matrix& a, const math::Matrix& b,
                        const char* what) {
  if (!a.same_shape(b)) throw std::invalid_argument(what);
}

/// Adds to `counts`, in place, the integer API-call additions that turn the
/// attacker-space `original_features` into `adversarial`. Deploying adds
/// straight into a copy of the raw counts, so no separate additions matrix
/// is built.
void add_count_perturbation(const features::CountTransform& attacker_transform,
                            const math::Matrix& original_features,
                            const math::Matrix& adversarial,
                            math::Matrix& counts) {
  for (std::size_t r = 0; r < original_features.rows(); ++r) {
    for (std::size_t c = 0; c < original_features.cols(); ++c) {
      const float delta = adversarial(r, c) - original_features(r, c);
      if (delta <= 0.0f) continue;  // add-only
      const auto before =
          attacker_transform.counts_for_feature_value(c, original_features(r, c));
      const auto after =
          attacker_transform.counts_for_feature_value(c, adversarial(r, c));
      counts(r, c) += static_cast<float>(after > before ? after - before : 1);
    }
  }
}

void add_binary_perturbation(const math::Matrix& original_features,
                             const math::Matrix& adversarial,
                             math::Matrix& counts) {
  for (std::size_t r = 0; r < original_features.rows(); ++r)
    for (std::size_t c = 0; c < original_features.cols(); ++c)
      // Any increase on an absent API means "call it once".
      if (adversarial(r, c) > original_features(r, c) &&
          original_features(r, c) < 0.5f)
        counts(r, c) += 1.0f;
}

}  // namespace

math::Matrix additions_from_count_perturbation(
    const features::CountTransform& attacker_transform,
    const math::Matrix& original_features, const math::Matrix& adversarial) {
  require_same_shape(original_features, adversarial,
                     "additions_from_count_perturbation: shape mismatch");
  math::Matrix additions(original_features.rows(), original_features.cols());
  add_count_perturbation(attacker_transform, original_features, adversarial,
                         additions);
  return additions;
}

math::Matrix additions_from_binary_perturbation(
    const math::Matrix& original_features, const math::Matrix& adversarial) {
  require_same_shape(original_features, adversarial,
                     "additions_from_binary_perturbation: shape mismatch");
  math::Matrix additions(original_features.rows(), original_features.cols());
  add_binary_perturbation(original_features, adversarial, additions);
  return additions;
}

FeatureSpaceMap make_greybox_count_map(
    features::CountTransform attacker_transform,
    features::FeaturePipeline target_pipeline, math::Matrix malware_counts) {
  auto transform = std::make_shared<features::CountTransform>(
      std::move(attacker_transform));
  auto pipeline =
      std::make_shared<features::FeaturePipeline>(std::move(target_pipeline));
  auto counts = std::make_shared<math::Matrix>(std::move(malware_counts));
  auto craft_features =
      std::make_shared<math::Matrix>(transform->apply(*counts));

  FeatureSpaceMap map;
  // The sweep hands us target-space features; the attacker crafts from its
  // own view of the same raw samples, so ignore the input and return the
  // captured attacker-space features.
  map.to_craft_space = [craft_features](const math::Matrix&) {
    return *craft_features;
  };
  map.to_target_space = [transform, pipeline, counts,
                         craft_features](const math::Matrix& adversarial) {
    require_same_shape(*craft_features, adversarial,
                       "greybox count map: shape mismatch");
    math::Matrix final_counts = *counts;
    add_count_perturbation(*transform, *craft_features, adversarial,
                           final_counts);
    return pipeline->features_from_counts(std::move(final_counts));
  };
  return map;
}

FeatureSpaceMap make_greybox_binary_map(features::FeaturePipeline target_pipeline,
                                        math::Matrix malware_counts) {
  auto pipeline =
      std::make_shared<features::FeaturePipeline>(std::move(target_pipeline));
  auto counts = std::make_shared<math::Matrix>(std::move(malware_counts));
  const features::BinaryTransform binary(counts->cols());
  auto craft_features =
      std::make_shared<math::Matrix>(binary.apply(*counts));

  FeatureSpaceMap map;
  map.to_craft_space = [craft_features](const math::Matrix&) {
    return *craft_features;
  };
  map.to_target_space = [pipeline, counts,
                         craft_features](const math::Matrix& adversarial) {
    require_same_shape(*craft_features, adversarial,
                       "greybox binary map: shape mismatch");
    math::Matrix final_counts = *counts;
    add_binary_perturbation(*craft_features, adversarial, final_counts);
    return pipeline->features_from_counts(std::move(final_counts));
  };
  return map;
}

}  // namespace mev::core
