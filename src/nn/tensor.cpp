#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/parallel.hpp"
#include "core/require.hpp"
#include "nn/kernels/kernels.hpp"

namespace adapt::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  ADAPT_REQUIRE(data_.size() == rows * cols, "tensor data size mismatch");
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::he_init(std::size_t fan_in, core::Rng& rng) {
  ADAPT_REQUIRE(fan_in > 0, "fan_in must be positive");
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : data_) v = static_cast<float>(rng.normal(0.0, stddev));
}

void Tensor::xavier_init(std::size_t fan_in, std::size_t fan_out,
                         core::Rng& rng) {
  ADAPT_REQUIRE(fan_in + fan_out > 0, "fans must be positive");
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& v : data_) v = static_cast<float>(rng.uniform(-limit, limit));
}

Tensor Tensor::slice_rows(std::size_t begin, std::size_t end) const {
  ADAPT_REQUIRE(begin <= end && end <= rows_, "row slice out of range");
  Tensor out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols_),
            out.data());
  return out;
}

double Tensor::squared_norm() const {
  double s = 0.0;
  for (const float v : data_) {
    const auto dv = static_cast<double>(v);
    s += dv * dv;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Blocked GEMM.
//
// All three matmul orientations funnel into one register-blocked,
// cache-tiled driver over row-major operands, C[n x m] = A[n x k] *
// B[k x m].  The transposed orientations pack their transposed operand
// into a contiguous row-major panel first (O(k*m) work against the
// kernel's O(n*k*m)), which turns the column-strided accesses of
// matmul_abt / matmul_atb into unit-stride streams.
//
// The inner row-block kernel is runtime-dispatched (nn/kernels):
// scalar, AVX2, or AVX-512 depending on the host CPU and ADAPT_SIMD.
// Every variant accumulates each output element in plain ascending-t
// order with unfused mul+add, so results are deterministic and
// independent of tiling, thread count, AND dispatched ISA.

namespace {

constexpr std::size_t kColChunk = 8;  ///< column-tile rounding unit.

/// Column-tile width: keep the B stripe (k x tile floats) within half
/// of a typical 32 KiB L1D, clamped to [kColChunk, 512] and rounded to
/// whole chunks.
std::size_t tile_cols(std::size_t k, std::size_t m) {
  static const std::size_t env_override =
      core::env_tuning_knob("ADAPT_GEMM_TILE_COLS", 0);
  std::size_t tile = env_override;
  if (tile == 0) {
    const std::size_t budget = 16 * 1024 / sizeof(float);  // half of L1D
    tile = std::clamp<std::size_t>(budget / std::max<std::size_t>(k, 1),
                                   kColChunk, 512);
  }
  tile = (tile / kColChunk) * kColChunk;
  tile = std::max(tile, kColChunk);
  return std::min(tile, std::max<std::size_t>(m, 1));
}

/// C = A * B over row-major buffers (overwrites C).  A is (n x k) with
/// row stride lda, B (k x m) row stride m, C (n x m) row stride m.
void gemm_rowmajor(const float* a, std::size_t lda, const float* b,
                   float* c, std::size_t n, std::size_t k, std::size_t m) {
  if (n == 0 || m == 0) return;
  if (k == 0) {
    std::fill(c, c + n * m, 0.0f);
    return;
  }
  const kernels::KernelSet& kset = kernels::active();
  kset.f32_calls->add();
  const std::size_t jt = tile_cols(k, m);
  // C rows per kernel call: the dispatched variant's micro-tile height.
  const std::size_t row_block = kset.f32_tile_rows;
  const std::size_t n_blocks = (n + row_block - 1) / row_block;
  core::parallel_for(
      n_blocks,
      [&](std::size_t blk) {
        const std::size_t i0 = blk * row_block;
        const std::size_t rows = std::min(row_block, n - i0);
        for (std::size_t j0 = 0; j0 < m; j0 += jt) {
          const std::size_t j1 = std::min(j0 + jt, m);
          kset.f32_row_block(a + i0 * lda, lda, b, m, c + i0 * m, m, rows, k,
                             j0, j1);
        }
      },
      // Amortize scheduling: hand out row blocks in bundles sized so a
      // bundle is ~64k MACs.
      std::max<std::size_t>(1, 65536 / std::max<std::size_t>(k * m, 1)));
}

/// Thread-local packing scratch (transposed panels), reused across
/// calls so the hot inference loop performs no steady-state
/// allocation.
std::vector<float>& pack_scratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

/// Pack src (r x c, row-major) transposed into dst (c x r, row-major),
/// in 16 x 16 tiles: a straight row walk scatters consecutive writes
/// over c different dst cache lines, and inference repacks every
/// weight (128 x 256 for the background net) on each call.
void pack_transposed(const float* __restrict src, std::size_t r,
                     std::size_t c, float* __restrict dst) {
  constexpr std::size_t kTile = 16;
  for (std::size_t i0 = 0; i0 < r; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, r);
    for (std::size_t j0 = 0; j0 < c; j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, c);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j) dst[j * r + i] = src[i * c + j];
    }
  }
}

}  // namespace

void matmul_abt(const Tensor& a, const Tensor& b, Tensor& c) {
  ADAPT_REQUIRE(a.cols() == b.cols(), "matmul_abt: inner dims mismatch");
  const std::size_t n = a.rows();
  const std::size_t m = b.rows();
  if (c.rows() != n || c.cols() != m) c = Tensor(n, m);
  matmul_abt(a.data(), n, a.cols(), b, c.data());
}

void matmul_abt(const float* a, std::size_t n, std::size_t k,
                const Tensor& b, float* c) {
  ADAPT_REQUIRE(b.cols() == k, "matmul_abt: inner dims mismatch");
  const std::size_t m = b.rows();
  if (n == 0 || m == 0) return;

  // Pack B (m x k) into a contiguous (k x m) panel: B^T rows become
  // unit-stride, and the shared kernel's column streaming applies.
  std::vector<float>& bt = pack_scratch();
  bt.resize(k * m);
  pack_transposed(b.data(), m, k, bt.data());
  gemm_rowmajor(a, k, bt.data(), c, n, k, m);
}

void matmul_ab(const Tensor& a, const Tensor& b, Tensor& c) {
  ADAPT_REQUIRE(a.cols() == b.rows(), "matmul_ab: inner dims mismatch");
  const std::size_t n = a.rows();
  const std::size_t k = a.cols();
  const std::size_t m = b.cols();
  if (c.rows() != n || c.cols() != m) c = Tensor(n, m);
  if (n == 0 || m == 0) return;
  gemm_rowmajor(a.data(), k, b.data(), c.data(), n, k, m);
}

void matmul_atb(const Tensor& a, const Tensor& b, Tensor& c) {
  ADAPT_REQUIRE(a.rows() == b.rows(), "matmul_atb: inner dims mismatch");
  const std::size_t k = a.rows();
  const std::size_t n = a.cols();
  const std::size_t m = b.cols();
  if (c.rows() != n || c.cols() != m) c = Tensor(n, m);
  if (n == 0 || m == 0) return;

  // Pack A (k x n) transposed into (n x k) so every output row reads a
  // contiguous A panel instead of striding column-wise.
  std::vector<float>& at = pack_scratch();
  at.resize(n * k);
  pack_transposed(a.data(), k, n, at.data());
  gemm_rowmajor(at.data(), k, b.data(), c.data(), n, k, m);
}

void add_row_broadcast(Tensor& y, const std::vector<float>& row) {
  ADAPT_REQUIRE(y.cols() == row.size(), "bias width mismatch");
  const float* __restrict r = row.data();
  const std::size_t cols = y.cols();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* __restrict yi = y.data() + i * cols;
#pragma omp simd
    for (std::size_t j = 0; j < cols; ++j) yi[j] += r[j];
  }
}

}  // namespace adapt::nn
