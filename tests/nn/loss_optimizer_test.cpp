#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace adapt::nn {
namespace {

TEST(BceWithLogits, KnownValues) {
  Tensor logits(2, 1);
  logits(0, 0) = 0.0f;   // p = 0.5.
  logits(1, 0) = 0.0f;
  const LossResult r = bce_with_logits(logits, {1.0f, 0.0f});
  EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
  // Gradient = (sigmoid(z) - t) / n.
  EXPECT_NEAR(r.grad(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(r.grad(1, 0), (0.5 - 0.0) / 2.0, 1e-6);
}

TEST(BceWithLogits, ConfidentCorrectIsNearZero) {
  Tensor logits(1, 1);
  logits(0, 0) = 20.0f;
  EXPECT_NEAR(bce_with_logits(logits, {1.0f}).value, 0.0, 1e-6);
}

TEST(BceWithLogits, ConfidentWrongIsLinearInLogit) {
  Tensor logits(1, 1);
  logits(0, 0) = 30.0f;
  EXPECT_NEAR(bce_with_logits(logits, {0.0f}).value, 30.0, 1e-4);
}

TEST(BceWithLogits, StableAtExtremeLogits) {
  Tensor logits(2, 1);
  logits(0, 0) = 500.0f;
  logits(1, 0) = -500.0f;
  const LossResult r = bce_with_logits(logits, {0.0f, 1.0f});
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_TRUE(std::isfinite(r.grad(0, 0)));
}

TEST(BceWithLogits, GradientMatchesFiniteDifference) {
  Tensor logits(3, 1);
  logits.vec() = {0.7f, -1.2f, 2.5f};
  const std::vector<float> targets{1.0f, 0.0f, 1.0f};
  const LossResult r = bce_with_logits(logits, targets);
  const double eps = 1e-4;
  for (std::size_t i = 0; i < 3; ++i) {
    Tensor lp = logits;
    lp.vec()[i] += static_cast<float>(eps);
    Tensor lm = logits;
    lm.vec()[i] -= static_cast<float>(eps);
    const double fd = (bce_with_logits(lp, targets).value -
                       bce_with_logits(lm, targets).value) /
                      (2.0 * eps);
    EXPECT_NEAR(r.grad(i, 0), fd, 1e-4);
  }
}

TEST(BceWithLogits, ValidatesShapes) {
  Tensor logits(2, 2);
  EXPECT_THROW(bce_with_logits(logits, {1.0f, 0.0f}),
               std::invalid_argument);
  Tensor ok(2, 1);
  EXPECT_THROW(bce_with_logits(ok, {1.0f}), std::invalid_argument);
}

TEST(Mse, KnownValueAndGradient) {
  Tensor pred(2, 1);
  pred(0, 0) = 1.0f;
  pred(1, 0) = 3.0f;
  const LossResult r = mse(pred, {0.0f, 1.0f});
  // ((1)^2 + (2)^2) / 2 = 2.5.
  EXPECT_NEAR(r.value, 2.5, 1e-6);
  EXPECT_NEAR(r.grad(0, 0), 2.0 * 1.0 / 2.0, 1e-6);
  EXPECT_NEAR(r.grad(1, 0), 2.0 * 2.0 / 2.0, 1e-6);
}

TEST(Mse, ZeroAtPerfectPrediction) {
  Tensor pred(3, 1);
  pred.vec() = {1.0f, -2.0f, 0.5f};
  const LossResult r = mse(pred, {1.0f, -2.0f, 0.5f});
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(Sgd, PlainStepIsScaledGradient) {
  Param p;
  p.value = Tensor(1, 2);
  p.value.vec() = {1.0f, 2.0f};
  p.zero_grad();
  p.grad.vec() = {0.5f, -0.5f};
  SgdConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.momentum = 0.0;
  Sgd opt({&p}, cfg);
  opt.step();
  EXPECT_NEAR(p.value(0, 0), 1.0f - 0.1f * 0.5f, 1e-6);
  EXPECT_NEAR(p.value(0, 1), 2.0f + 0.1f * 0.5f, 1e-6);
}

TEST(Sgd, MomentumAcceleratesRepeatedGradients) {
  Param p;
  p.value = Tensor(1, 1);
  p.value(0, 0) = 0.0f;
  p.zero_grad();
  p.grad(0, 0) = 1.0f;
  SgdConfig cfg;
  cfg.learning_rate = 1.0;
  cfg.momentum = 0.5;
  Sgd opt({&p}, cfg);
  opt.step();  // v = 1, x = -1.
  opt.step();  // v = 1.5, x = -2.5.
  EXPECT_NEAR(p.value(0, 0), -2.5f, 1e-6);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Param p;
  p.value = Tensor(1, 1);
  p.value(0, 0) = 10.0f;
  p.zero_grad();  // Zero gradient: only decay acts.
  SgdConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.momentum = 0.0;
  cfg.weight_decay = 0.1;
  Sgd opt({&p}, cfg);
  opt.step();
  EXPECT_NEAR(p.value(0, 0), 10.0f - 0.1f * (0.1f * 10.0f), 1e-6);
}

TEST(Sgd, MinimizesQuadraticBowl) {
  // f(x) = (x - 3)^2; gradient 2(x - 3).
  Param p;
  p.value = Tensor(1, 1);
  p.value(0, 0) = -5.0f;
  SgdConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.momentum = 0.9;
  Sgd opt({&p}, cfg);
  for (int i = 0; i < 200; ++i) {
    p.zero_grad();
    p.grad(0, 0) = 2.0f * (p.value(0, 0) - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value(0, 0), 3.0f, 1e-3);
}

TEST(Sgd, RejectsBadConfig) {
  Param p;
  p.value = Tensor(1, 1);
  SgdConfig cfg;
  cfg.learning_rate = 0.0;
  EXPECT_THROW(Sgd({&p}, cfg), std::invalid_argument);
  cfg = SgdConfig{};
  cfg.momentum = 1.0;
  EXPECT_THROW(Sgd({&p}, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace adapt::nn
