#pragma once

/// \file trainer.hpp
/// Mini-batch training loop with validation-based early stopping,
/// following the paper's protocol (Sec. III): SGD, up to 120 epochs,
/// stop when validation loss ceases to improve, keep the best
/// weights.

#include <functional>
#include <vector>

#include "nn/data.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace adapt::nn {

/// Loss function signature shared by bce_with_logits and mse.
using LossFn = LossResult (*)(const Tensor&, const std::vector<float>&);

struct TrainConfig {
  std::size_t batch_size = 256;
  std::size_t max_epochs = 120;  ///< Paper's cap.
  std::size_t patience = 10;     ///< Epochs without val improvement.
  SgdConfig sgd;
  bool verbose = false;          ///< Print per-epoch losses to stdout.
};

struct TrainReport {
  std::size_t epochs_run = 0;
  bool stopped_early = false;
  double best_val_loss = 0.0;
  std::vector<double> train_losses;  ///< Per epoch.
  std::vector<double> val_losses;    ///< Per epoch.
};

class Trainer {
 public:
  Trainer(Sequential& model, LossFn loss, const TrainConfig& config);

  /// Train on `train`, early-stop on `val`.  The model is left holding
  /// the best-validation weights.
  TrainReport fit(const Dataset& train, const Dataset& val, core::Rng& rng);

  /// Mean loss of the current model on a dataset (inference mode).
  double evaluate(const Dataset& data);

 private:
  Sequential* model_;
  LossFn loss_;
  TrainConfig config_;
};

}  // namespace adapt::nn
