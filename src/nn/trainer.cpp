#include "nn/trainer.hpp"

#include <cstdio>
#include <limits>

#include "core/require.hpp"

namespace adapt::nn {

Trainer::Trainer(Sequential& model, LossFn loss, const TrainConfig& config)
    : model_(&model), loss_(loss), config_(config) {
  ADAPT_REQUIRE(loss != nullptr, "null loss function");
  ADAPT_REQUIRE(config.batch_size >= 2,
                "batch size must be >= 2 (batchnorm statistics)");
  ADAPT_REQUIRE(config.max_epochs >= 1, "need at least one epoch");
}

TrainReport Trainer::fit(const Dataset& train, const Dataset& val,
                         core::Rng& rng) {
  ADAPT_REQUIRE(!train.empty() && !val.empty(), "empty train/val set");
  TrainReport report;
  Sgd sgd(model_->params(), config_.sgd);
  DataLoader loader(train, config_.batch_size, rng);

  double best_val = std::numeric_limits<double>::infinity();
  std::vector<std::vector<float>> best_weights = model_->snapshot_weights();
  std::size_t epochs_since_best = 0;

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    loader.reset();
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    Tensor xb;
    std::vector<float> yb;
    while (loader.next(xb, yb)) {
      // BatchNorm needs at least two rows to form batch statistics;
      // a trailing singleton batch is skipped.
      if (xb.rows() < 2) continue;
      model_->zero_grad();
      const Tensor pred = model_->forward(xb, /*training=*/true);
      const LossResult loss = loss_(pred, yb);
      model_->backward(loss.grad);
      sgd.step();
      epoch_loss += loss.value;
      ++batches;
    }
    ADAPT_REQUIRE(batches > 0, "no usable batches in training set");
    epoch_loss /= static_cast<double>(batches);

    const double val_loss = evaluate(val);
    report.train_losses.push_back(epoch_loss);
    report.val_losses.push_back(val_loss);
    report.epochs_run = epoch + 1;
    if (config_.verbose) {
      std::printf("epoch %3zu  train %.6f  val %.6f\n", epoch + 1, epoch_loss,
                  val_loss);
    }

    if (val_loss < best_val - 1e-9) {
      best_val = val_loss;
      best_weights = model_->snapshot_weights();
      epochs_since_best = 0;
    } else if (++epochs_since_best >= config_.patience) {
      report.stopped_early = true;
      break;
    }
  }

  model_->restore_weights(best_weights);
  report.best_val_loss = best_val;
  return report;
}

double Trainer::evaluate(const Dataset& data) {
  ADAPT_REQUIRE(!data.empty(), "empty evaluation set");
  const Tensor pred = model_->forward(data.x, /*training=*/false);
  return loss_(pred, data.y).value;
}

}  // namespace adapt::nn
