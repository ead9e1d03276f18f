// The end-to-end feature pipeline: ApiLog -> raw counts -> normalized
// feature vector. This is the exact code path the detector, the defenses
// and the live source-level attack all share.
#pragma once

#include <memory>
#include <utility>

#include "data/api_log.hpp"
#include "data/api_vocab.hpp"
#include "features/extractor.hpp"
#include "features/transform.hpp"

namespace mev::features {

class FeaturePipeline {
 public:
  FeaturePipeline(const data::ApiVocab& vocab,
                  std::unique_ptr<FeatureTransform> transform)
      : extractor_(vocab), transform_(std::move(transform)) {
    if (transform_ == nullptr)
      throw std::invalid_argument("FeaturePipeline: null transform");
  }

  FeaturePipeline(const FeaturePipeline& other)
      : extractor_(other.extractor_), transform_(other.transform_->clone()) {}
  FeaturePipeline& operator=(const FeaturePipeline& other) {
    if (this != &other) {
      extractor_ = other.extractor_;
      transform_ = other.transform_->clone();
    }
    return *this;
  }
  FeaturePipeline(FeaturePipeline&&) noexcept = default;
  FeaturePipeline& operator=(FeaturePipeline&&) noexcept = default;

  /// Normalized feature vector for one log.
  std::vector<float> features_from_log(const data::ApiLog& log) const {
    return transform_->apply_row(extractor_.extract(log));
  }

  /// Normalized features for raw count rows.
  math::Matrix features_from_counts(const math::Matrix& counts) const {
    return transform_->apply(counts);
  }

  /// The same, reusing the storage of `counts`.
  math::Matrix features_from_counts(math::Matrix&& counts) const {
    transform_->apply_in_place(counts);
    return std::move(counts);
  }

  std::vector<float> features_from_counts_row(
      std::span<const float> counts) const {
    return transform_->apply_row(counts);
  }

  const CountExtractor& extractor() const noexcept { return extractor_; }
  const FeatureTransform& transform() const noexcept { return *transform_; }
  std::size_t dim() const noexcept { return transform_->dim(); }

 private:
  CountExtractor extractor_;
  std::unique_ptr<FeatureTransform> transform_;
};

}  // namespace mev::features
