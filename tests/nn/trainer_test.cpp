#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"

namespace adapt::nn {
namespace {

/// Linearly separable binary dataset: label = x0 + x1 > 0.
Dataset separable(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  Dataset ds;
  ds.x = Tensor(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    ds.x(r, 0) = static_cast<float>(a);
    ds.x(r, 1) = static_cast<float>(b);
    ds.y.push_back(a + b > 0.0 ? 1.0f : 0.0f);
  }
  return ds;
}

/// Noisy linear regression target: y = 2 x0 - x1 + noise.
Dataset regression(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  Dataset ds;
  ds.x = Tensor(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    ds.x(r, 0) = static_cast<float>(a);
    ds.x(r, 1) = static_cast<float>(b);
    ds.y.push_back(static_cast<float>(2.0 * a - b + rng.normal(0.0, 0.01)));
  }
  return ds;
}

TEST(Trainer, LearnsSeparableClassification) {
  core::Rng rng(1);
  Sequential model;
  model.add(std::make_unique<Linear>(2, 8, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(8, 1, rng));

  TrainConfig cfg;
  cfg.batch_size = 32;
  cfg.max_epochs = 60;
  cfg.patience = 60;
  cfg.sgd.learning_rate = 0.1;
  cfg.sgd.momentum = 0.9;
  Trainer trainer(model, bce_with_logits, cfg);
  const Dataset train = separable(600, 2);
  const Dataset val = separable(150, 3);
  const TrainReport report = trainer.fit(train, val, rng);
  EXPECT_LT(report.best_val_loss, 0.1);

  // Accuracy on fresh data.
  const Dataset test = separable(300, 4);
  const Tensor out = model.forward(test.x, false);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const bool positive = out(i, 0) > 0.0f;
    if (positive == (test.y[i] > 0.5f)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()),
            0.95);
}

TEST(Trainer, LearnsLinearRegression) {
  core::Rng rng(5);
  Sequential model;
  model.add(std::make_unique<Linear>(2, 1, rng));
  TrainConfig cfg;
  cfg.batch_size = 32;
  cfg.max_epochs = 80;
  cfg.patience = 80;
  cfg.sgd.learning_rate = 0.1;
  cfg.sgd.momentum = 0.9;
  Trainer trainer(model, mse, cfg);
  const TrainReport report =
      trainer.fit(regression(500, 6), regression(100, 7), rng);
  EXPECT_LT(report.best_val_loss, 0.01);
}

TEST(Trainer, EarlyStoppingTriggersAndRestoresBest) {
  core::Rng rng(8);
  Sequential model;
  model.add(std::make_unique<Linear>(2, 4, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(4, 1, rng));
  TrainConfig cfg;
  cfg.batch_size = 16;
  cfg.max_epochs = 100;
  cfg.patience = 3;
  cfg.sgd.learning_rate = 0.8;  // Deliberately unstable: val loss will
                                // bounce, triggering early stop.
  Trainer trainer(model, mse, cfg);
  const TrainReport report =
      trainer.fit(regression(200, 9), regression(60, 10), rng);
  EXPECT_LE(report.epochs_run, cfg.max_epochs);
  // The restored model evaluates at (or very near) the best recorded
  // validation loss.
  const double val_now = trainer.evaluate(regression(60, 10));
  EXPECT_NEAR(val_now, report.best_val_loss, 0.3 * report.best_val_loss + 0.05);
}

TEST(Trainer, LossHistoriesHaveOneEntryPerEpoch) {
  core::Rng rng(11);
  Sequential model;
  model.add(std::make_unique<Linear>(2, 1, rng));
  TrainConfig cfg;
  cfg.batch_size = 32;
  cfg.max_epochs = 5;
  cfg.patience = 5;
  Trainer trainer(model, mse, cfg);
  const TrainReport report =
      trainer.fit(regression(100, 12), regression(40, 13), rng);
  EXPECT_EQ(report.train_losses.size(), report.epochs_run);
  EXPECT_EQ(report.val_losses.size(), report.epochs_run);
}

TEST(Trainer, PaperArchitecturesTrainEndToEnd) {
  // Smoke check that the exact Fig. 5 architectures (both networks,
  // both block orders) train without shape errors and reduce loss.
  core::Rng rng(14);
  for (const bool swapped : {false, true}) {
    Sequential model = build_mlp(background_net_spec(13, swapped), rng);
    TrainConfig cfg;
    cfg.batch_size = 64;
    cfg.max_epochs = 3;
    cfg.patience = 3;
    cfg.sgd.learning_rate = 0.01;
    Trainer trainer(model, bce_with_logits, cfg);

    core::Rng drng(15);
    Dataset train;
    train.x = Tensor(256, 13);
    for (std::size_t r = 0; r < 256; ++r) {
      double sum = 0.0;
      for (std::size_t c = 0; c < 13; ++c) {
        const double v = drng.uniform(-1.0, 1.0);
        train.x(r, c) = static_cast<float>(v);
        sum += v;
      }
      train.y.push_back(sum > 0.0 ? 1.0f : 0.0f);
    }
    core::Rng srng(16);
    const SplitResult s = split(train, 0.8, srng);
    const TrainReport report = trainer.fit(s.first, s.second, rng);
    EXPECT_GT(report.epochs_run, 0u);
    EXPECT_LT(report.train_losses.back(), report.train_losses.front() + 0.1);
  }
}

TEST(Trainer, RejectsBatchSizeOne) {
  core::Rng rng(17);
  Sequential model;
  model.add(std::make_unique<Linear>(2, 1, rng));
  TrainConfig cfg;
  cfg.batch_size = 1;
  EXPECT_THROW(Trainer(model, mse, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace adapt::nn
