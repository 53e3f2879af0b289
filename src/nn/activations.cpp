#include "nn/activations.hpp"

#include <cmath>

#include "core/require.hpp"

namespace adapt::nn {

float sigmoid(float x) {
  // Numerically stable in both tails.
  if (x >= 0.0f) {
    const float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

Tensor ReLU::forward(const Tensor& x, bool training) {
  if (!training) {
    Tensor y = x;
    float* __restrict v = y.data();
#pragma omp simd
    for (std::size_t i = 0; i < y.size(); ++i) v[i] = relu(v[i]);
    return y;
  }
  Tensor y(x.rows(), x.cols());
  mask_ = Tensor(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.vec()[i];
    y.vec()[i] = v > 0.0f ? v : 0.0f;
    mask_.vec()[i] = v > 0.0f ? 1.0f : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  ADAPT_REQUIRE(grad_out.rows() == mask_.rows() &&
                    grad_out.cols() == mask_.cols(),
                "relu backward shape mismatch");
  Tensor dx(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < dx.size(); ++i)
    dx.vec()[i] = grad_out.vec()[i] * mask_.vec()[i];
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool training) {
  Tensor y(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    y.vec()[i] = sigmoid(x.vec()[i]);
  if (training) output_cache_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  ADAPT_REQUIRE(grad_out.rows() == output_cache_.rows() &&
                    grad_out.cols() == output_cache_.cols(),
                "sigmoid backward shape mismatch");
  Tensor dx(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const float y = output_cache_.vec()[i];
    dx.vec()[i] = grad_out.vec()[i] * y * (1.0f - y);
  }
  return dx;
}

}  // namespace adapt::nn
