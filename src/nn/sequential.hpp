#pragma once

/// \file sequential.hpp
/// Ordered layer stack with whole-network forward/backward, parameter
/// collection, and weight snapshot/restore (used by early stopping to
/// keep the best-validation weights, as the paper trains with early
/// stopping).

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace adapt::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(LayerPtr layer);

  /// Whole-stack forward.  With training=false each Linear runs fused
  /// with the ReLU / BatchNorm1d layers after it (see infer()), bit-
  /// identical to calling every layer's forward(x, false) in turn.
  Tensor forward(const Tensor& x, bool training = false);

  /// Backward through the whole stack; returns the input gradient.
  Tensor backward(const Tensor& grad_out);

  std::vector<Param*> params();
  void zero_grad();

  std::size_t n_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Total trainable scalar count.
  std::size_t n_parameters();

  /// Deep copy of all parameter values (and batchnorm running stats).
  std::vector<std::vector<float>> snapshot_weights();
  void restore_weights(const std::vector<std::vector<float>>& snapshot);

  std::string describe() const;

 private:
  /// forward(x, false): allocation-free in steady state, safe for
  /// concurrent callers (all scratch is thread_local).
  Tensor infer(const Tensor& x);

  std::vector<LayerPtr> layers_;
};

}  // namespace adapt::nn
