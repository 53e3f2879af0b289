#pragma once

/// \file linear.hpp
/// Fully connected layer: y = x W^T + b, weights stored as
/// (out_features x in_features) — the PyTorch convention, which also
/// matches the INT8 per-output-channel quantization in adapt::quant.

#include "nn/layer.hpp"

namespace adapt::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, core::Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string type() const override { return "linear"; }
  std::string describe() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Param weight_;  ///< (out x in).
  Param bias_;    ///< (1 x out).
  Tensor input_cache_;
};

}  // namespace adapt::nn
