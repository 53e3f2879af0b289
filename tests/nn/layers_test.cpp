#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

namespace adapt::nn {
namespace {

/// Numerical gradient check harness: perturb one input entry, measure
/// the change of a scalar loss L = sum(output * g) for a fixed random
/// g, and compare against the layer's backward().
void check_input_gradient(Layer& layer, const Tensor& x, double tol,
                          double eps = 1e-3) {
  core::Rng rng(999);
  Tensor y = layer.forward(x, /*training=*/true);
  Tensor g(y.rows(), y.cols());
  for (auto& v : g.vec()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Tensor dx = layer.backward(g);
  ASSERT_EQ(dx.rows(), x.rows());
  ASSERT_EQ(dx.cols(), x.cols());

  const auto loss = [&](const Tensor& input) {
    Tensor out = layer.forward(input, /*training=*/true);
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      l += static_cast<double>(out.vec()[i]) * g.vec()[i];
    return l;
  };

  // Spot-check a handful of entries.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 7)) {
    Tensor xp = x;
    xp.vec()[i] += static_cast<float>(eps);
    Tensor xm = x;
    xm.vec()[i] -= static_cast<float>(eps);
    const double fd = (loss(xp) - loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx.vec()[i], fd, tol) << "entry " << i;
  }
  // Restore caches for the original input (callers may keep going).
  (void)layer.forward(x, true);
  (void)layer.backward(g);
}

/// Parameter gradient check for the layer's first parameter tensor.
void check_param_gradient(Layer& layer, const Tensor& x, Param& param,
                          double tol, double eps = 1e-3) {
  core::Rng rng(555);
  Tensor y = layer.forward(x, true);
  Tensor g(y.rows(), y.cols());
  for (auto& v : g.vec()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  param.zero_grad();
  (void)layer.forward(x, true);
  (void)layer.backward(g);
  const std::vector<float> analytic = param.grad.vec();

  const auto loss = [&]() {
    Tensor out = layer.forward(x, true);
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      l += static_cast<double>(out.vec()[i]) * g.vec()[i];
    return l;
  };

  for (std::size_t i = 0; i < param.value.size();
       i += std::max<std::size_t>(1, param.value.size() / 7)) {
    const float original = param.value.vec()[i];
    param.value.vec()[i] = original + static_cast<float>(eps);
    const double lp = loss();
    param.value.vec()[i] = original - static_cast<float>(eps);
    const double lm = loss();
    param.value.vec()[i] = original;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], fd, tol) << "param entry " << i;
  }
}

Tensor random_input(std::size_t n, std::size_t d, std::uint64_t seed) {
  core::Rng rng(seed);
  Tensor x(n, d);
  for (auto& v : x.vec()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return x;
}

TEST(Linear, ForwardMatchesManual) {
  core::Rng rng(1);
  Linear lin(2, 3, rng);
  // Set known weights/bias.
  lin.weight().value.vec() = {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, -1.0f};
  lin.bias().value.vec() = {0.5f, -0.5f, 0.0f};
  Tensor x(1, 2);
  x(0, 0) = 2.0f;
  x(0, 1) = 3.0f;
  const Tensor y = lin.forward(x, false);
  // y = x W^T + b with W rows = output channels.
  EXPECT_FLOAT_EQ(y(0, 0), 2.0f * 1 + 3.0f * 0 + 0.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 2.0f * 0 + 3.0f * 1 - 0.5f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f * 1 - 3.0f * 1 + 0.0f);
}

TEST(Linear, InputGradientMatchesFiniteDifference) {
  core::Rng rng(2);
  Linear lin(5, 4, rng);
  check_input_gradient(lin, random_input(6, 5, 10), 2e-2);
}

TEST(Linear, WeightGradientMatchesFiniteDifference) {
  core::Rng rng(3);
  Linear lin(4, 3, rng);
  const Tensor x = random_input(5, 4, 11);
  check_param_gradient(lin, x, lin.weight(), 2e-2);
}

TEST(Linear, BiasGradientMatchesFiniteDifference) {
  core::Rng rng(4);
  Linear lin(4, 3, rng);
  const Tensor x = random_input(5, 4, 12);
  check_param_gradient(lin, x, lin.bias(), 2e-2);
}

TEST(Linear, GradientsAccumulateUntilZeroed) {
  core::Rng rng(5);
  Linear lin(3, 2, rng);
  const Tensor x = random_input(4, 3, 13);
  Tensor g(4, 2, 1.0f);

  lin.weight().zero_grad();
  lin.bias().zero_grad();
  (void)lin.forward(x, true);
  (void)lin.backward(g);
  const std::vector<float> once = lin.weight().grad.vec();

  (void)lin.forward(x, true);
  (void)lin.backward(g);
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_NEAR(lin.weight().grad.vec()[i], 2.0f * once[i], 1e-4);

  lin.weight().zero_grad();
  for (float v : lin.weight().grad.vec()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x(1, 4);
  x.vec() = {-1.0f, 0.0f, 2.0f, -0.5f};
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(y(0, 3), 0.0f);
}

TEST(ReLU, EdgeValuesMatchTheSelectDefinition) {
  // ReLU is v > 0 ? v : 0, and the branch-free inference loop must keep
  // exactly that: -0.0 and NaN fail the comparison and become +0.0,
  // positive denormals pass through unflushed, negative ones become
  // +0.0.  The training path computes the same values.
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {-0.0f, nan, -nan, denorm, -denorm,
                                 1e-40f, inf, -inf, 0.0f};
  const std::vector<float> want = {0.0f, 0.0f, 0.0f, denorm, 0.0f,
                                   1e-40f, inf, 0.0f, 0.0f};
  for (const bool training : {false, true}) {
    // Widths around the vector lengths, so edge values land in both the
    // vector body and the scalar tail.
    for (std::size_t reps = 1; reps <= 5; ++reps) {
      Tensor x(reps, in.size());
      for (std::size_t r = 0; r < reps; ++r)
        std::copy(in.begin(), in.end(), x.data() + r * in.size());
      ReLU relu;
      const Tensor y = relu.forward(x, training);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float got = y.vec()[i];
        const float expect = want[i % in.size()];
        EXPECT_EQ(std::memcmp(&got, &expect, sizeof(float)), 0)
            << "training=" << training << " in=" << in[i % in.size()]
            << " got=" << got << " signbit=" << std::signbit(got);
      }
    }
  }
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor x(1, 3);
  x.vec() = {-1.0f, 1.0f, 2.0f};
  (void)relu.forward(x, true);
  Tensor g(1, 3, 1.0f);
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 1.0f);
}

TEST(SigmoidLayer, ForwardRangeAndSymmetry) {
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(sigmoid(10.0f), 1.0f, 1e-4);
  EXPECT_NEAR(sigmoid(-10.0f), 0.0f, 1e-4);
  EXPECT_NEAR(sigmoid(3.0f) + sigmoid(-3.0f), 1.0f, 1e-6);
  // Extreme logits must not overflow.
  EXPECT_FLOAT_EQ(sigmoid(500.0f), 1.0f);
  EXPECT_FLOAT_EQ(sigmoid(-500.0f), 0.0f);
}

TEST(SigmoidLayer, GradientMatchesFiniteDifference) {
  Sigmoid sig;
  check_input_gradient(sig, random_input(3, 4, 14), 5e-3);
}

TEST(BatchNorm, TrainingNormalizesBatch) {
  BatchNorm1d bn(2);
  Tensor x(4, 2);
  x.vec() = {1.0f, 10.0f, 2.0f, 20.0f, 3.0f, 30.0f, 4.0f, 40.0f};
  const Tensor y = bn.forward(x, true);
  // Per-column mean ~ 0, variance ~ 1 (biased).
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (std::size_t r = 0; r < 4; ++r) mean += y(r, c);
    mean /= 4.0;
    for (std::size_t r = 0; r < 4; ++r) {
      const double d = y(r, c) - mean;
      var += d * d;
    }
    var /= 4.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataMoments) {
  BatchNorm1d bn(1, /*momentum=*/0.2);
  core::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    Tensor x(32, 1);
    for (auto& v : x.vec()) v = static_cast<float>(rng.normal(5.0, 2.0));
    (void)bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0, 0.3);
  EXPECT_NEAR(bn.running_var()[0], 4.0, 0.8);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm1d bn(1, 1.0);  // Momentum 1: running = last batch.
  Tensor x(4, 1);
  x.vec() = {2.0f, 4.0f, 6.0f, 8.0f};
  (void)bn.forward(x, true);
  // A single inference point is normalized by running stats, not by
  // (undefined) batch stats.
  Tensor one(1, 1);
  one(0, 0) = 5.0f;
  const Tensor y = bn.forward(one, false);
  // mean 5, unbiased var = 20/3.
  EXPECT_NEAR(y(0, 0), 0.0, 1e-5);
}

TEST(BatchNorm, AffineParametersApplied) {
  BatchNorm1d bn(1);
  bn.gamma().value(0, 0) = 3.0f;
  bn.beta().value(0, 0) = -1.0f;
  Tensor x(2, 1);
  x.vec() = {-1.0f, 1.0f};
  const Tensor y = bn.forward(x, true);
  // Normalized values are +-1 (up to eps); y = 3 * xhat - 1.
  EXPECT_NEAR(y(0, 0), -4.0, 1e-2);
  EXPECT_NEAR(y(1, 0), 2.0, 1e-2);
}

TEST(BatchNorm, InputGradientMatchesFiniteDifference) {
  BatchNorm1d bn(3);
  // Make gamma/beta non-trivial so the gradient exercises them.
  bn.gamma().value.vec() = {1.5f, 0.7f, -1.2f};
  bn.beta().value.vec() = {0.1f, -0.2f, 0.3f};
  check_input_gradient(bn, random_input(8, 3, 15), 3e-2);
}

TEST(BatchNorm, GammaBetaGradientsMatchFiniteDifference) {
  BatchNorm1d bn(2);
  const Tensor x = random_input(6, 2, 16);
  check_param_gradient(bn, x, bn.gamma(), 3e-2);
  check_param_gradient(bn, x, bn.beta(), 3e-2);
}

TEST(BatchNorm, SingletonTrainingBatchRejected) {
  BatchNorm1d bn(2);
  Tensor x(1, 2, 1.0f);
  EXPECT_THROW(bn.forward(x, true), std::invalid_argument);
  EXPECT_NO_THROW(bn.forward(x, false));
}

TEST(SequentialStack, ForwardComposesLayers) {
  core::Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Linear>(3, 4, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(4, 1, rng));
  const Tensor x = random_input(5, 3, 17);
  const Tensor y = model.forward(x, false);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 1u);
  EXPECT_EQ(model.n_layers(), 3u);
  EXPECT_EQ(model.params().size(), 4u);  // Two linears x (W, b).
  EXPECT_EQ(model.n_parameters(), 3u * 4u + 4u + 4u * 1u + 1u);
}

TEST(SequentialStack, SnapshotRestoreRoundTrip) {
  core::Rng rng(8);
  Sequential model;
  model.add(std::make_unique<BatchNorm1d>(3));
  model.add(std::make_unique<Linear>(3, 2, rng));
  const Tensor x = random_input(6, 3, 18);
  (void)model.forward(x, true);  // Mutate running stats.
  const auto snap = model.snapshot_weights();
  const Tensor y_before = model.forward(x, false);

  // Perturb everything, then restore.
  for (Param* p : model.params())
    for (auto& v : p->value.vec()) v += 1.0f;
  (void)model.forward(x, true);
  model.restore_weights(snap);
  const Tensor y_after = model.forward(x, false);
  for (std::size_t i = 0; i < y_before.size(); ++i)
    EXPECT_FLOAT_EQ(y_before.vec()[i], y_after.vec()[i]);
}

TEST(SequentialStack, WholeNetworkGradientCheck) {
  core::Rng rng(9);
  Sequential model;
  model.add(std::make_unique<BatchNorm1d>(4));
  model.add(std::make_unique<Linear>(4, 6, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(6, 1, rng));

  const Tensor x = random_input(8, 4, 19);
  core::Rng grng(20);
  Tensor g(8, 1);
  for (auto& v : g.vec()) v = static_cast<float>(grng.uniform(-1.0, 1.0));

  (void)model.forward(x, true);
  const Tensor dx = model.backward(g);

  const auto loss = [&](const Tensor& input) {
    Tensor out = model.forward(input, true);
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      l += static_cast<double>(out.vec()[i]) * g.vec()[i];
    return l;
  };
  const double eps = 1e-3;
  for (std::size_t i = 0; i < x.size(); i += 5) {
    Tensor xp = x;
    xp.vec()[i] += static_cast<float>(eps);
    Tensor xm = x;
    xm.vec()[i] -= static_cast<float>(eps);
    const double fd = (loss(xp) - loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx.vec()[i], fd, 5e-2) << "entry " << i;
  }
}

}  // namespace
}  // namespace adapt::nn
