#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/activation.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"

namespace perfbench {

using namespace mev;

namespace {

double activate(nn::Activation act, double z) {
  switch (act) {
    case nn::Activation::kIdentity: return z;
    case nn::Activation::kRelu: return z > 0.0 ? z : 0.0;
    case nn::Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-z));
    case nn::Activation::kTanh: return std::tanh(z);
    case nn::Activation::kLeakyRelu: return z > 0.0 ? z : 0.01 * z;
  }
  throw std::logic_error("reference: unknown activation");
}

}  // namespace

Reference reference_verdicts(const nn::Network& net,
                             const math::Matrix& features, bool corrupt) {
  Reference ref;
  ref.predicted_class.resize(features.rows());
  ref.malware_confidence.resize(features.rows());

  std::vector<double> x, y;
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const auto row = features.row(r);
    x.assign(row.begin(), row.end());
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      // Dropout is the identity at inference; every other layer is dense.
      const auto* dense = dynamic_cast<const nn::DenseLayer*>(&net.layer(l));
      if (dense == nullptr) continue;
      const math::Matrix& w = dense->weights();  // in x out
      const math::Matrix& b = dense->bias();     // 1 x out
      y.assign(w.cols(), 0.0);
      for (std::size_t i = 0; i < w.rows(); ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        const auto wi = w.row(i);
        for (std::size_t j = 0; j < w.cols(); ++j) y[j] += xi * wi[j];
      }
      for (std::size_t j = 0; j < y.size(); ++j)
        y[j] = activate(dense->activation(), y[j] + b(0, j));
      x.swap(y);
    }
    // Softmax over the logits, in double.
    const double top = *std::max_element(x.begin(), x.end());
    double sum = 0.0;
    for (const double v : x) sum += std::exp(v - top);
    const double p_malware = std::exp(x[data::kMalwareLabel] - top) / sum;
    const double p_clean = std::exp(x[data::kCleanLabel] - top) / sum;
    ref.malware_confidence[r] = p_malware;
    ref.predicted_class[r] =
        p_malware >= p_clean ? data::kMalwareLabel : data::kCleanLabel;
  }
  if (corrupt && !ref.predicted_class.empty())
    ref.predicted_class[0] = ref.predicted_class[0] == data::kMalwareLabel
                                 ? data::kCleanLabel
                                 : data::kMalwareLabel;
  return ref;
}

Reference reference_verdicts(const core::MalwareDetector& detector,
                             const math::Matrix& counts, bool corrupt) {
  return reference_verdicts(detector.network(),
                            detector.features_of_counts(counts), corrupt);
}

}  // namespace perfbench
