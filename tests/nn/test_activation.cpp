#include "nn/activation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace mev::nn {
namespace {

math::Matrix sample_inputs() {
  return math::Matrix{{-2.0f, -0.5f, 0.0f, 0.5f, 2.0f}};
}

TEST(Activation, ReluValues) {
  math::Matrix z = sample_inputs();
  apply_activation(Activation::kRelu, z);
  EXPECT_EQ(z(0, 0), 0.0f);
  EXPECT_EQ(z(0, 2), 0.0f);
  EXPECT_EQ(z(0, 4), 2.0f);
}

TEST(Activation, SigmoidValues) {
  math::Matrix z = sample_inputs();
  apply_activation(Activation::kSigmoid, z);
  EXPECT_NEAR(z(0, 2), 0.5f, 1e-6);
  EXPECT_NEAR(z(0, 4), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
}

TEST(Activation, TanhValues) {
  math::Matrix z = sample_inputs();
  apply_activation(Activation::kTanh, z);
  EXPECT_NEAR(z(0, 2), 0.0f, 1e-6);
  EXPECT_NEAR(z(0, 4), std::tanh(2.0f), 1e-6);
}

TEST(Activation, LeakyReluValues) {
  math::Matrix z = sample_inputs();
  apply_activation(Activation::kLeakyRelu, z);
  EXPECT_NEAR(z(0, 0), -0.02f, 1e-6);
  EXPECT_EQ(z(0, 4), 2.0f);
}

TEST(Activation, IdentityIsNoop) {
  math::Matrix z = sample_inputs();
  const math::Matrix original = z;
  apply_activation(Activation::kIdentity, z);
  EXPECT_EQ(z, original);
}

class ActivationGradient : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradient, MatchesFiniteDifference) {
  const Activation act = GetParam();
  // Offset away from 0 so finite differences never straddle the
  // relu-family kink.
  math::Matrix z = sample_inputs();
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] += 0.013f;
  math::Matrix a = z;
  apply_activation(act, a);
  math::Matrix grad(1, z.cols(), 1.0f);  // upstream gradient of ones
  apply_activation_grad(act, a, grad);

  const float eps = 1e-3f;
  for (std::size_t j = 0; j < z.cols(); ++j) {
    math::Matrix zp = z, zm = z;
    zp(0, j) += eps;
    zm(0, j) -= eps;
    apply_activation(act, zp);
    apply_activation(act, zm);
    const float fd = (zp(0, j) - zm(0, j)) / (2 * eps);
    EXPECT_NEAR(grad(0, j), fd, 5e-3) << "feature " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradient,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kSigmoid,
                                           Activation::kTanh,
                                           Activation::kLeakyRelu));

TEST(Activation, GradShapeMismatchThrows) {
  const math::Matrix a = sample_inputs();
  math::Matrix grad(2, a.cols(), 1.0f);
  EXPECT_THROW(apply_activation_grad(Activation::kRelu, a, grad),
               std::invalid_argument);
}

TEST(Activation, StringRoundTrip) {
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kSigmoid,
        Activation::kTanh, Activation::kLeakyRelu}) {
    EXPECT_EQ(activation_from_string(to_string(act)), act);
  }
  EXPECT_THROW(activation_from_string("swish"), std::invalid_argument);
}

}  // namespace
}  // namespace mev::nn
