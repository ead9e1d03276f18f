// Activation functions for dense layers.
//
// A dense layer keeps one buffer: the GEMM writes z = x*W into it, and
// bias_activation_epilogue turns each finished row block into
// a = act(z + b) in place. The backward pass therefore sees only the output
// a, and every derivative here is keyed on it (see apply_activation_grad).
#pragma once

#include <cstdint>
#include <string>

#include "math/matrix.hpp"

namespace mev::nn {

enum class Activation : std::uint8_t {
  kIdentity = 0,
  kRelu = 1,
  kSigmoid = 2,
  kTanh = 3,
  kLeakyRelu = 4,  // slope 0.01 for x < 0
};

/// Applies the activation elementwise in place.
void apply_activation(Activation act, math::Matrix& z);

/// The matmul_into epilogue z(i, j) = act(z(i, j) + bias(0, j)) for a
/// product with n columns and a 1 x n `bias`, which must outlive it: the
/// same float operations in the same order as add_row_broadcast followed
/// by apply_activation, so the result is bit-identical to that pair.
/// Throws std::invalid_argument here on an unknown activation, so the
/// epilogue itself never throws and can run inside a parallel region.
math::RowEpilogue bias_activation_epilogue(Activation act,
                                           const math::Matrix& bias);

/// Given the activation output a = act(z) cached by the forward pass,
/// multiplies grad (elementwise, in place) by act'(z). Sigmoid and tanh
/// derivatives are functions of a. ReLU and leaky-ReLU keep the sign of z,
/// so their "z <= 0" kink test reads "a <= 0" (also for z = -0.0 and for a
/// leaky 0.01*z that underflows to -0.0).
void apply_activation_grad(Activation act, const math::Matrix& a,
                           math::Matrix& grad);

std::string to_string(Activation act);

/// Parses the string produced by to_string. Throws on unknown names.
Activation activation_from_string(const std::string& name);

}  // namespace mev::nn
