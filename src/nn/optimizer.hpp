#pragma once

/// \file optimizer.hpp
/// SGD with classical momentum and optional L2 weight decay — the
/// optimizer the paper trains both networks with.

#include <vector>

#include "nn/layer.hpp"

namespace adapt::nn {

struct SgdConfig {
  double learning_rate = 1e-3;
  double momentum = 0.9;
  double weight_decay = 0.0;
};

class Sgd {
 public:
  Sgd(std::vector<Param*> params, const SgdConfig& config);

  /// Apply one update from the accumulated gradients, then leave the
  /// gradients untouched (caller zeroes them per batch).
  void step();

  void set_learning_rate(double lr) { config_.learning_rate = lr; }
  double learning_rate() const { return config_.learning_rate; }
  const SgdConfig& config() const { return config_; }

 private:
  std::vector<Param*> params_;
  std::vector<std::vector<float>> velocity_;
  SgdConfig config_;
};

}  // namespace adapt::nn
