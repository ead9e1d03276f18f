// Feature transformations: raw API counts -> model inputs in [0, 1]
// ("The raw counts of the APIs were applied to feature transformation and
//  the values were normalized to [0,1]", §II-A).
//
// Two transforms are provided:
//  * CountTransform — log-compression then per-feature max normalization,
//    fit on the training split. This is the target detector's pipeline.
//  * BinaryTransform — presence/absence features, the reduced-knowledge
//    pipeline the grey-box attacker uses in the paper's second experiment
//    (Fig. 4(c)).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "math/matrix.hpp"

namespace mev::features {

class FeatureTransform {
 public:
  virtual ~FeatureTransform() = default;

  /// Maps one raw count row to normalized features in [0, 1].
  virtual std::vector<float> apply_row(std::span<const float> counts) const = 0;

  /// Batch version: one row per sample.
  math::Matrix apply(const math::Matrix& counts) const;

  /// Batch version in place: each count row becomes its feature row
  /// (counts.cols() must equal dim()).
  void apply_in_place(math::Matrix& counts) const;

  virtual std::size_t dim() const noexcept = 0;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<FeatureTransform> clone() const = 0;
};

enum class CountScaling {
  /// x_i = count_i / max_train_count_i (the paper's "raw counts ...
  /// normalized to [0,1]" reading; min-max normalization).
  kLinear,
  /// x_i = log1p(count_i) / log1p(max_train_count_i) — compresses the
  /// heavy-tailed counts; provided as an ablation (DESIGN.md §5).
  kLog1p,
};

/// Per-feature max normalization of raw counts to [0, 1], fit on the
/// training split, with linear (default) or log1p scaling.
class CountTransform final : public FeatureTransform {
 public:
  explicit CountTransform(CountScaling scaling = CountScaling::kLinear)
      : scaling_(scaling) {}

  /// Fits per-feature denominators on the training counts.
  void fit(const math::Matrix& train_counts);
  bool fitted() const noexcept { return !denominators_.empty(); }

  std::vector<float> apply_row(std::span<const float> counts) const override;
  std::size_t dim() const noexcept override { return denominators_.size(); }
  std::string name() const override { return "count"; }
  std::unique_ptr<FeatureTransform> clone() const override;

  /// Inverse map for one feature: the raw count whose normalized value is
  /// `feature_value` (rounded up). Used by the source-level attack to turn
  /// a feature-space perturbation back into "add the API k times".
  std::size_t counts_for_feature_value(std::size_t feature_index,
                                       float feature_value) const;

  const std::vector<float>& denominators() const noexcept {
    return denominators_;
  }
  CountScaling scaling() const noexcept { return scaling_; }

  void save(std::ostream& os) const;
  static CountTransform load(std::istream& is);

 private:
  CountScaling scaling_ = CountScaling::kLinear;
  std::vector<float> denominators_;  // scaled max count per feature, >= 1
};

/// x_i = 1 if count_i > 0 else 0.
class BinaryTransform final : public FeatureTransform {
 public:
  explicit BinaryTransform(std::size_t dim) : dim_(dim) {}

  std::vector<float> apply_row(std::span<const float> counts) const override;
  std::size_t dim() const noexcept override { return dim_; }
  std::string name() const override { return "binary"; }
  std::unique_ptr<FeatureTransform> clone() const override;

 private:
  std::size_t dim_;
};

}  // namespace mev::features
