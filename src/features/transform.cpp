#include "features/transform.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace mev::features {

math::Matrix FeatureTransform::apply(const math::Matrix& counts) const {
  math::Matrix out(counts.rows(), dim());
  for (std::size_t r = 0; r < counts.rows(); ++r)
    out.set_row(r, apply_row(counts.row(r)));
  return out;
}

void FeatureTransform::apply_in_place(math::Matrix& counts) const {
  if (counts.cols() != dim())
    throw std::invalid_argument("FeatureTransform: dimension mismatch");
  for (std::size_t r = 0; r < counts.rows(); ++r)
    counts.set_row(r, apply_row(counts.row(r)));
}

namespace {
float scale_count(features::CountScaling scaling, float count) {
  const float c = std::max(count, 0.0f);
  return scaling == CountScaling::kLog1p ? std::log1p(c) : c;
}
}  // namespace

void CountTransform::fit(const math::Matrix& train_counts) {
  if (train_counts.rows() == 0 || train_counts.cols() == 0)
    throw std::invalid_argument("CountTransform::fit: empty data");
  const float floor = scale_count(scaling_, 1.0f);
  denominators_.assign(train_counts.cols(), floor);
  for (std::size_t r = 0; r < train_counts.rows(); ++r) {
    const auto row = train_counts.row(r);
    for (std::size_t c = 0; c < row.size(); ++c)
      denominators_[c] =
          std::max(denominators_[c], scale_count(scaling_, row[c]));
  }
}

std::vector<float> CountTransform::apply_row(
    std::span<const float> counts) const {
  if (!fitted()) throw std::logic_error("CountTransform: apply before fit");
  if (counts.size() != denominators_.size())
    throw std::invalid_argument("CountTransform: dimension mismatch");
  std::vector<float> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const float v = scale_count(scaling_, counts[i]) / denominators_[i];
    out[i] = std::clamp(v, 0.0f, 1.0f);
  }
  return out;
}

std::unique_ptr<FeatureTransform> CountTransform::clone() const {
  return std::make_unique<CountTransform>(*this);
}

std::size_t CountTransform::counts_for_feature_value(
    std::size_t feature_index, float feature_value) const {
  if (!fitted()) throw std::logic_error("CountTransform: use before fit");
  if (feature_index >= denominators_.size())
    throw std::out_of_range("CountTransform::counts_for_feature_value");
  const float v = std::clamp(feature_value, 0.0f, 1.0f);
  const double scaled = static_cast<double>(v) * denominators_[feature_index];
  const double raw =
      scaling_ == CountScaling::kLog1p ? std::expm1(scaled) : scaled;
  // Counts are integers; forward float rounding can land raw a few ulps on
  // either side of one, so snap before taking the ceiling.
  const double snapped = std::round(raw);
  if (std::abs(raw - snapped) < 1e-3 * std::max(1.0, snapped))
    return static_cast<std::size_t>(snapped);
  return static_cast<std::size_t>(std::ceil(raw));
}

void CountTransform::save(std::ostream& os) const {
  const auto old_precision = os.precision(10);  // float-exact round trip
  os << (scaling_ == CountScaling::kLog1p ? "log1p" : "linear") << '\n'
     << denominators_.size() << '\n';
  for (float d : denominators_) os << d << '\n';
  os.precision(old_precision);
}

CountTransform CountTransform::load(std::istream& is) {
  std::string mode;
  std::size_t n = 0;
  if (!(is >> mode >> n))
    throw std::runtime_error("CountTransform::load: bad header");
  if (mode != "log1p" && mode != "linear")
    throw std::runtime_error("CountTransform::load: unknown scaling " + mode);
  CountTransform t(mode == "log1p" ? CountScaling::kLog1p
                                   : CountScaling::kLinear);
  t.denominators_.resize(n);
  for (auto& d : t.denominators_)
    if (!(is >> d)) throw std::runtime_error("CountTransform::load: truncated");
  return t;
}

std::vector<float> BinaryTransform::apply_row(
    std::span<const float> counts) const {
  if (counts.size() != dim_)
    throw std::invalid_argument("BinaryTransform: dimension mismatch");
  std::vector<float> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i)
    out[i] = counts[i] > 0.0f ? 1.0f : 0.0f;
  return out;
}

std::unique_ptr<FeatureTransform> BinaryTransform::clone() const {
  return std::make_unique<BinaryTransform>(*this);
}

}  // namespace mev::features
