#pragma once

/// \file activations.hpp
/// ReLU (block activation in paper Fig. 5) and Sigmoid (background
/// network output).  The FPGA kernel drops the final sigmoid — it is
/// bijective, so the classification threshold is applied to the logit
/// instead (paper Sec. V); the software path keeps it for calibrated
/// probabilities.

#include "nn/layer.hpp"

namespace adapt::nn {

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type() const override { return "relu"; }

 private:
  Tensor mask_;  ///< 1 where the input was positive.
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type() const override { return "sigmoid"; }

 private:
  Tensor output_cache_;
};

/// Scalar sigmoid, shared with inference wrappers.
float sigmoid(float x);

/// ReLU's arithmetic, v > 0 ? v : 0: -0.0 and NaN map to +0.0 and
/// denormals pass through.  A select, not a branch, so loops over it
/// vectorize to one packed max per vector.  ReLU::forward and
/// Sequential's fused epilogue both use it.
inline float relu(float v) { return v > 0.0f ? v : 0.0f; }

}  // namespace adapt::nn
