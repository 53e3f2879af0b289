#pragma once

/// \file tensor.hpp
/// A 2-D row-major float tensor — the only shape the paper's MLPs need
/// (batch x features).  FP32 matches the paper's full-precision
/// models; the INT8 path lives in adapt::quant.
///
/// The GEMM kernels are OpenMP-parallel over rows, mirroring how the
/// flight pipeline parallelizes NN inference across cores.

#include <cstddef>
#include <vector>

#include "core/contract.hpp"
#include "core/rng.hpp"

namespace adapt::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f);
  /// Adopts `data` as the (rows x cols) row-major values; its size
  /// must be rows * cols.
  Tensor(std::size_t rows, std::size_t cols, std::vector<float> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    ADAPT_INVARIANT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    ADAPT_INVARIANT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  const std::vector<float>& vec() const { return data_; }
  std::vector<float>& vec() { return data_; }

  void fill(float v);
  void zero() { fill(0.0f); }

  /// He-normal initialization (for ReLU nets): N(0, sqrt(2/fan_in)).
  void he_init(std::size_t fan_in, core::Rng& rng);

  /// Xavier-uniform initialization: U(+-sqrt(6/(fan_in+fan_out))).
  void xavier_init(std::size_t fan_in, std::size_t fan_out, core::Rng& rng);

  /// Extract rows [begin, end) as a new tensor.
  Tensor slice_rows(std::size_t begin, std::size_t end) const;

  /// Sum of squares of all entries (for weight-decay diagnostics).
  double squared_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B^T.  A is (n x k), B is (m x k), C is (n x m).  This is
/// the natural orientation for Linear layers storing weights as
/// (out_features x in_features).
void matmul_abt(const Tensor& a, const Tensor& b, Tensor& c);

/// The same product over raw row-major panels: A is (n x k) at `a`, C
/// (n x b.rows()) at `c`, which must not alias A.  Lets Sequential's
/// inference pass run GEMMs straight between its scratch panels.
void matmul_abt(const float* a, std::size_t n, std::size_t k,
                const Tensor& b, float* c);

/// C = A * B.  A is (n x k), B is (k x m), C is (n x m).
void matmul_ab(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A^T * B.  A is (k x n), B is (k x m), C is (n x m).  Used for
/// weight gradients (dW = dY^T X).
void matmul_atb(const Tensor& a, const Tensor& b, Tensor& c);

/// y += row_vector broadcast over rows (bias add).
void add_row_broadcast(Tensor& y, const std::vector<float>& row);

}  // namespace adapt::nn
