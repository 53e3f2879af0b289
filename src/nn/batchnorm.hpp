#pragma once

/// \file batchnorm.hpp
/// 1-D batch normalization (per-feature), matching the paper's block
/// structure (Fig. 5: BatchNorm1d -> FC -> ReLU) and PyTorch
/// semantics: batch statistics during training with an exponential
/// running estimate used at inference; affine gamma/beta parameters.
///
/// The running statistics are what the quantization stage folds into
/// the adjacent Linear layer (paper Sec. V's "layer-swapped" fusion).

#include "nn/layer.hpp"

namespace adapt::nn {

class BatchNorm1d final : public Layer {
 public:
  explicit BatchNorm1d(std::size_t features, double momentum = 0.1,
                       double eps = 1e-5);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::string type() const override { return "batchnorm1d"; }
  std::string describe() const override;

  std::size_t features() const { return features_; }
  double eps() const { return eps_; }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  const Param& gamma() const { return gamma_; }
  const Param& beta() const { return beta_; }

  /// Running statistics (1 x features), used at inference and by BN
  /// folding.
  const std::vector<float>& running_mean() const { return running_mean_; }
  const std::vector<float>& running_var() const { return running_var_; }
  std::vector<float>& running_mean() { return running_mean_; }
  std::vector<float>& running_var() { return running_var_; }

 private:
  std::size_t features_;
  double momentum_;
  double eps_;
  Param gamma_;  ///< (1 x features), initialized to 1.
  Param beta_;   ///< (1 x features), initialized to 0.
  std::vector<float> running_mean_;
  std::vector<float> running_var_;

  // Training-time caches for backward.  Inference deliberately keeps
  // NO member scratch: forward(training=false) must stay safe for
  // concurrent callers sharing one layer (the serving worker and any
  // in-process evaluation both run the same deployed net).
  Tensor x_hat_;              ///< Normalized input.
  std::vector<float> batch_inv_std_;
};

}  // namespace adapt::nn
