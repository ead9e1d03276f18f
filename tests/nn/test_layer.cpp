#include "nn/layer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "math/matrix.hpp"

namespace mev::nn {
namespace {

/// One-shot forward through a fresh workspace (the session owns workspaces
/// in production; tests drive layers directly).
math::Matrix forward_of(const Layer& layer, const math::Matrix& x,
                        bool training = false) {
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, training);
  return ws.output;
}

TEST(DenseLayer, ForwardKnownValues) {
  // y = x * W + b with identity activation.
  math::Matrix w{{1, 0}, {0, 2}};
  math::Matrix b{{10, 20}};
  DenseLayer layer(std::move(w), std::move(b), Activation::kIdentity);
  const math::Matrix y = forward_of(layer, math::Matrix{{3, 4}});
  EXPECT_EQ(y(0, 0), 13.0f);
  EXPECT_EQ(y(0, 1), 28.0f);
}

TEST(DenseLayer, ForwardAppliesActivation) {
  math::Matrix w{{1}, {1}};
  math::Matrix b{{-10}};
  DenseLayer layer(std::move(w), std::move(b), Activation::kRelu);
  EXPECT_EQ(forward_of(layer, math::Matrix{{1, 2}})(0, 0), 0.0f);
}

TEST(DenseLayer, ForwardIsConstOnLayer) {
  // The layer is read-only during forward: two workspaces on one layer
  // produce identical results in either order.
  math::Rng rng(7);
  const DenseLayer layer(3, 2, Activation::kTanh, rng);
  const math::Matrix x{{0.5f, -1.0f, 2.0f}};
  LayerWorkspace a, b;
  layer.init_workspace(a);
  layer.init_workspace(b);
  layer.forward(x, a, false);
  layer.forward(x, b, false);
  EXPECT_EQ(a.output, b.output);
}

TEST(DenseLayer, DimensionMismatchThrows) {
  math::Rng rng(1);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  LayerWorkspace ws;
  layer.init_workspace(ws);
  EXPECT_THROW(layer.forward(math::Matrix(1, 4), ws, false),
               std::invalid_argument);
}

TEST(DenseLayer, BiasShapeMismatchThrows) {
  EXPECT_THROW(DenseLayer(math::Matrix(2, 3), math::Matrix(1, 2),
                          Activation::kIdentity),
               std::invalid_argument);
}

TEST(DenseLayer, ZeroDimensionThrows) {
  math::Rng rng(1);
  EXPECT_THROW(DenseLayer(0, 2, Activation::kRelu, rng),
               std::invalid_argument);
}

TEST(DenseLayer, ParameterGradientsMatchFiniteDifference) {
  math::Rng rng(3);
  DenseLayer layer(4, 3, Activation::kTanh, rng);
  math::Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal());

  // Loss = sum of outputs; upstream gradient of ones.
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(2, 3, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/true);

  auto values = layer.param_values();
  ASSERT_EQ(values.size(), 2u);
  ASSERT_EQ(ws.param_grads.size(), 2u);

  const float eps = 1e-2f;
  for (std::size_t k = 0; k < values.size(); ++k) {
    math::Matrix* value = values[k];
    for (std::size_t i = 0; i < std::min<std::size_t>(value->size(), 6);
         ++i) {
      const float original = value->data()[i];
      value->data()[i] = original + eps;
      const double up = forward_of(layer, x).sum();
      value->data()[i] = original - eps;
      const double down = forward_of(layer, x).sum();
      value->data()[i] = original;
      const double fd = (up - down) / (2 * eps);
      EXPECT_NEAR(ws.param_grads[k].data()[i], fd, 2e-2);
    }
  }
}

TEST(DenseLayer, InputGradientMatchesFiniteDifference) {
  math::Rng rng(4);
  DenseLayer layer(3, 2, Activation::kSigmoid, rng);
  math::Matrix x(1, 3);
  for (std::size_t i = 0; i < 3; ++i)
    x.data()[i] = static_cast<float>(rng.normal());

  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(1, 2, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/false);

  const float eps = 1e-2f;
  for (std::size_t j = 0; j < 3; ++j) {
    math::Matrix xp = x, xm = x;
    xp(0, j) += eps;
    xm(0, j) -= eps;
    const double fd =
        (forward_of(layer, xp).sum() - forward_of(layer, xm).sum()) /
        (2 * eps);
    EXPECT_NEAR(ws.grad_input(0, j), fd, 2e-2);
  }
}

TEST(DenseLayer, GradientsAccumulateAcrossBackwards) {
  math::Rng rng(5);
  DenseLayer layer(2, 2, Activation::kIdentity, rng);
  const math::Matrix x{{1, 1}};
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(1, 2, 1.0f);
  layer.backward(upstream, x, ws, true);
  const float once = ws.param_grads[0].data()[0];
  upstream = math::Matrix(1, 2, 1.0f);  // backward clobbers its input
  layer.backward(upstream, x, ws, true);
  EXPECT_NEAR(ws.param_grads[0].data()[0], 2 * once, 1e-5);
  ws.param_grads[0].fill(0.0f);
  EXPECT_EQ(ws.param_grads[0].data()[0], 0.0f);
}

TEST(DenseLayer, SkippingParamGradsLeavesAccumulatorsZero) {
  // The attack-gradient fast path must not touch the accumulators.
  math::Rng rng(8);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  const math::Matrix x{{1, 2, 3}};
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(1, 2, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/false);
  for (const auto& g : ws.param_grads)
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_EQ(g.data()[i], 0.0f);
  // The input gradient is still produced.
  EXPECT_EQ(ws.grad_input.rows(), 1u);
  EXPECT_EQ(ws.grad_input.cols(), 3u);
}

TEST(DenseLayer, FusedBiasActivationMatchesSeparatePasses) {
  // The fused pass must give the bits of GEMM, bias add, then activation.
  // 70 outputs take every variant's ab path, 65 x 37 x 70 multiply-adds
  // split it across OpenMP threads, and 65 rows end in a partial row
  // block; 2 outputs take the dot-product path for narrow layers.
  for (const std::size_t out : {70, 2})
    for (Activation act :
         {Activation::kIdentity, Activation::kRelu, Activation::kSigmoid,
          Activation::kTanh, Activation::kLeakyRelu}) {
      math::Rng rng(11);
      DenseLayer layer(37, out, act, rng);
      for (float& b : layer.mutable_bias().row(0))
        b = static_cast<float>(rng.normal());
      math::Matrix x(65, 37);
      for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.normal());
      math::Matrix expected;
      math::matmul_into(x, layer.weights(), expected);
      math::add_row_broadcast(expected, layer.bias().row(0));
      apply_activation(act, expected);
      EXPECT_EQ(forward_of(layer, x), expected)
          << to_string(act) << " out=" << out;
    }
}

TEST(DenseLayer, ReluFamilyGradientFromOutputEqualsZKeyedRule) {
  // The backward pass keys the kink test on the output a instead of z:
  // ReLU and leaky-ReLU keep z's sign, so "a <= 0" must agree with
  // "z <= 0" on zeros of both signs, negatives, denormals and a leaky
  // value whose 0.01 * z underflows to -0.0.
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> zs = {0.0f,  -0.0f, -1.0f,  -1e-3f, -tiny,
                                 -1e-44f, tiny, 1e-30f, 0.5f,  3.0f};
  const std::size_t n = zs.size();
  {
    math::Matrix a(1, n);
    for (std::size_t j = 0; j < n; ++j) a(0, j) = zs[j];
    apply_activation(Activation::kLeakyRelu, a);
    ASSERT_TRUE(a(0, 5) == 0.0f && std::signbit(a(0, 5)))
        << "0.01 * -1e-44 should underflow to -0.0";
  }
  for (Activation act : {Activation::kRelu, Activation::kLeakyRelu}) {
    const float below = act == Activation::kRelu ? 0.0f : 0.01f;
    math::Matrix upstream(1, n);
    for (std::size_t j = 0; j < n; ++j)
      upstream(0, j) = static_cast<float>(j + 1) * (j % 2 ? -1.0f : 1.0f);
    std::vector<float> expected(n);
    for (std::size_t j = 0; j < n; ++j)
      expected[j] = zs[j] <= 0.0f ? below * upstream(0, j) : upstream(0, j);

    // Directly on the cached output.
    math::Matrix a(1, n), grad = upstream;
    for (std::size_t j = 0; j < n; ++j) a(0, j) = zs[j];
    apply_activation(act, a);
    apply_activation_grad(act, a, grad);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(grad(0, j), expected[j]) << to_string(act) << " z=" << zs[j];

    // Through a layer: W = I and b = 0 make z = x, and W^T = I hands the
    // activation gradient to the input unchanged.
    math::Matrix w(n, n);
    for (std::size_t j = 0; j < n; ++j) w(j, j) = 1.0f;
    DenseLayer layer(std::move(w), math::Matrix(1, n), act);
    math::Matrix x(1, n);
    for (std::size_t j = 0; j < n; ++j) x(0, j) = zs[j];
    LayerWorkspace ws;
    layer.init_workspace(ws);
    layer.forward(x, ws, false);
    grad = upstream;
    layer.backward(grad, x, ws, /*accumulate_param_grads=*/false);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(ws.grad_input(0, j), expected[j])
          << to_string(act) << " layer, z=" << zs[j];
  }
}

TEST(DenseLayer, CloneIsDeepCopy) {
  math::Rng rng(6);
  DenseLayer layer(2, 2, Activation::kRelu, rng);
  auto clone = layer.clone();
  auto* dense = dynamic_cast<DenseLayer*>(clone.get());
  ASSERT_NE(dense, nullptr);
  EXPECT_EQ(dense->weights(), layer.weights());
  dense->mutable_weights()(0, 0) += 1.0f;
  EXPECT_NE(dense->weights(), layer.weights());
}

TEST(DropoutLayer, InferenceModePassesThrough) {
  DropoutLayer drop(3, 0.5f, 1);
  const math::Matrix x{{1, 2, 3}};
  EXPECT_EQ(forward_of(drop, x, false), x);
}

TEST(DropoutLayer, TrainingZeroesRoughlyRateFraction) {
  DropoutLayer drop(1000, 0.4f, 2);
  const math::Matrix x(1, 1000, 1.0f);
  const math::Matrix y = forward_of(drop, x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (y.data()[i] == 0.0f) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.4, 0.06);
  // Kept units are scaled by 1/(1-rate).
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] != 0.0f) {
      EXPECT_NEAR(y.data()[i], 1.0f / 0.6f, 1e-5);
    }
  }
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  DropoutLayer drop(100, 0.5f, 3);
  const math::Matrix x(1, 100, 1.0f);
  LayerWorkspace ws;
  drop.init_workspace(ws);
  drop.forward(x, ws, true);
  const math::Matrix y = ws.output;
  math::Matrix upstream(1, 100, 1.0f);
  drop.backward(upstream, x, ws, false);
  for (std::size_t i = 0; i < 100; ++i) {
    if (y.data()[i] == 0.0f) {
      EXPECT_EQ(ws.grad_input.data()[i], 0.0f);
    } else {
      EXPECT_GT(ws.grad_input.data()[i], 0.0f);
    }
  }
}

TEST(DropoutLayer, InferenceBackwardIsIdentity) {
  DropoutLayer drop(4, 0.5f, 5);
  const math::Matrix x{{1, 2, 3, 4}};
  LayerWorkspace ws;
  drop.init_workspace(ws);
  drop.forward(x, ws, false);  // inference: no mask recorded
  math::Matrix upstream{{5, 6, 7, 8}};
  drop.backward(upstream, x, ws, false);
  EXPECT_EQ(ws.grad_input, (math::Matrix{{5, 6, 7, 8}}));
}

TEST(DropoutLayer, InvalidRateThrows) {
  EXPECT_THROW(DropoutLayer(3, 1.0f, 1), std::invalid_argument);
  EXPECT_THROW(DropoutLayer(3, -0.1f, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mev::nn
