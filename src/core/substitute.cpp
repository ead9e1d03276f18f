#include "core/substitute.hpp"

#include <memory>
#include <utility>

#include "features/transform.hpp"

namespace mev::core {

namespace {

SubstituteResult train_with_pipeline(features::FeaturePipeline pipeline,
                                     const data::CountDataset& attacker_data,
                                     const ExperimentConfig& config) {
  math::Matrix features = pipeline.features_from_counts(attacker_data.counts);
  auto network = std::make_shared<nn::Network>(
      nn::make_mlp(config.substitute_architecture(features.cols())));

  nn::LabeledData train_data{std::move(features), attacker_data.labels};
  SubstituteResult result{std::move(pipeline), network,
                          nn::train(*network, train_data,
                                    config.substitute_training()),
                          0.0};
  result.train_accuracy =
      nn::accuracy(*network, train_data.x, train_data.labels);
  return result;
}

}  // namespace

SubstituteResult train_substitute_exact_features(
    const data::CountDataset& attacker_data, const ExperimentConfig& config,
    const features::FeaturePipeline& target_pipeline) {
  return train_with_pipeline(target_pipeline, attacker_data, config);
}

SubstituteResult train_substitute_binary_features(
    const data::CountDataset& attacker_data, const ExperimentConfig& config,
    const data::ApiVocab& vocab) {
  auto transform =
      std::make_unique<features::BinaryTransform>(vocab.size());
  return train_with_pipeline(
      features::FeaturePipeline(vocab, std::move(transform)), attacker_data,
      config);
}

}  // namespace mev::core
