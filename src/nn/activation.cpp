#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

namespace mev::nn {

namespace {

// Templated elementwise kernels: the functor is a concrete lambda, so the
// compiler inlines and vectorizes the loop body. (Matrix::apply with a
// std::function stays available for cold call sites; the forward/backward
// hot path must not pay a type-erased call per element.)
template <typename F>
inline void elementwise(math::Matrix& m, F&& f) {
  float* p = m.data();
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = f(p[i]);
}

/// rows[r * n + j] = F{}(rows[r * n + j] + bias[j]) for a 1 x n bias
/// matrix: the bias add and the activation in one pass over a block of a
/// layer's output rows (a math::RowEpilogue).
template <typename F>
void bias_activation_rows(const void* bias, float* rows, std::size_t count) {
  constexpr F f{};
  const auto& bias_row = *static_cast<const math::Matrix*>(bias);
  const float* b = bias_row.data();
  const std::size_t cols = bias_row.cols();
  for (std::size_t r = 0; r < count; ++r) {
    float* p = rows + r * cols;
    for (std::size_t c = 0; c < cols; ++c) p[c] = f(p[c] + b[c]);
  }
}

/// grad[i] = f(grad[i], a[i]) — derivative kernels keyed on the cached
/// activation output.
template <typename F>
inline void elementwise_grad(math::Matrix& grad, const math::Matrix& a,
                             F&& f) {
  float* g = grad.data();
  const float* r = a.data();
  const std::size_t n = grad.size();
  for (std::size_t i = 0; i < n; ++i) g[i] = f(g[i], r[i]);
}

constexpr auto kIdentityFn = [](float x) { return x; };
constexpr auto kReluFn = [](float x) { return x > 0.0f ? x : 0.0f; };
constexpr auto kSigmoidFn = [](float x) {
  return 1.0f / (1.0f + std::exp(-x));
};
constexpr auto kTanhFn = [](float x) { return std::tanh(x); };
constexpr auto kLeakyReluFn = [](float x) {
  return x > 0.0f ? x : 0.01f * x;
};

}  // namespace

void apply_activation(Activation act, math::Matrix& z) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      elementwise(z, kReluFn);
      return;
    case Activation::kSigmoid:
      elementwise(z, kSigmoidFn);
      return;
    case Activation::kTanh:
      elementwise(z, kTanhFn);
      return;
    case Activation::kLeakyRelu:
      elementwise(z, kLeakyReluFn);
      return;
  }
  throw std::invalid_argument("apply_activation: unknown activation");
}

math::RowEpilogue bias_activation_epilogue(Activation act,
                                           const math::Matrix& bias) {
  switch (act) {
    case Activation::kIdentity:
      return {bias_activation_rows<decltype(kIdentityFn)>, &bias};
    case Activation::kRelu:
      return {bias_activation_rows<decltype(kReluFn)>, &bias};
    case Activation::kSigmoid:
      return {bias_activation_rows<decltype(kSigmoidFn)>, &bias};
    case Activation::kTanh:
      return {bias_activation_rows<decltype(kTanhFn)>, &bias};
    case Activation::kLeakyRelu:
      return {bias_activation_rows<decltype(kLeakyReluFn)>, &bias};
  }
  throw std::invalid_argument("bias_activation_epilogue: unknown activation");
}

void apply_activation_grad(Activation act, const math::Matrix& a,
                           math::Matrix& grad) {
  if (!grad.same_shape(a))
    throw std::invalid_argument("apply_activation_grad: shape mismatch");
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      elementwise_grad(grad, a,
                       [](float g, float ai) { return ai <= 0.0f ? 0.0f : g; });
      return;
    case Activation::kSigmoid:
      elementwise_grad(grad, a,
                       [](float g, float ai) { return g * ai * (1.0f - ai); });
      return;
    case Activation::kTanh:
      elementwise_grad(grad, a,
                       [](float g, float ai) { return g * (1.0f - ai * ai); });
      return;
    case Activation::kLeakyRelu:
      elementwise_grad(grad, a, [](float g, float ai) {
        return ai <= 0.0f ? 0.01f * g : g;
      });
      return;
  }
  throw std::invalid_argument("apply_activation_grad: unknown activation");
}

std::string to_string(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kLeakyRelu: return "leaky_relu";
  }
  return "unknown";
}

Activation activation_from_string(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  if (name == "leaky_relu") return Activation::kLeakyRelu;
  throw std::invalid_argument("activation_from_string: " + name);
}

}  // namespace mev::nn
