/// Scalar reference kernels.  Every SIMD variant must match these bit
/// for bit; they are also the shipped fallback on CPUs (or builds)
/// without AVX2, so they keep the 4-way channel/column blocking that
/// gives the autovectorizer independent accumulator chains.
///
/// This TU builds with the project's baseline flags plus
/// -ffp-contract=off: the float kernel's mul+add must stay unfused so
/// the scalar path computes exactly what the hand-vectorized variants
/// compute (they have no FMA to fall into, but the *compiler* could
/// contract here and break identity from the reference side).

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_impl.hpp"

#include <string>

#include "core/require.hpp"

namespace adapt::nn::kernels::detail {

namespace {

constexpr std::size_t kColChunk = 8;  ///< C columns per float micro-tile.

/// R x kColChunk micro-tile with accumulators in registers: the B row
/// chunk is loaded once per t and shared across the R output rows.
template <int R>
inline void micro_tile_full(const float* __restrict a, std::size_t lda,
                            const float* __restrict b, std::size_t ldb,
                            float* __restrict c, std::size_t ldc,
                            std::size_t k) {
  float acc[R][kColChunk] = {};
  for (std::size_t t = 0; t < k; ++t) {
    const float* __restrict bt = b + t * ldb;
    for (int r = 0; r < R; ++r) {
      const float ar = a[static_cast<std::size_t>(r) * lda + t];
#pragma omp simd
      for (std::size_t j = 0; j < kColChunk; ++j) acc[r][j] += ar * bt[j];
    }
  }
  for (int r = 0; r < R; ++r)
    for (std::size_t j = 0; j < kColChunk; ++j)
      c[static_cast<std::size_t>(r) * ldc + j] = acc[r][j];
}

/// Remainder micro-tile (jw < kColChunk columns).
template <int R>
inline void micro_tile_partial(const float* __restrict a, std::size_t lda,
                               const float* __restrict b, std::size_t ldb,
                               float* __restrict c, std::size_t ldc,
                               std::size_t k, std::size_t jw) {
  float acc[R][kColChunk] = {};
  for (std::size_t t = 0; t < k; ++t) {
    const float* __restrict bt = b + t * ldb;
    for (int r = 0; r < R; ++r) {
      const float ar = a[static_cast<std::size_t>(r) * lda + t];
      for (std::size_t j = 0; j < jw; ++j) acc[r][j] += ar * bt[j];
    }
  }
  for (int r = 0; r < R; ++r)
    for (std::size_t j = 0; j < jw; ++j)
      c[static_cast<std::size_t>(r) * ldc + j] = acc[r][j];
}

}  // namespace

void u8i8_gemm_scalar(const std::uint8_t* x, const std::int8_t* w,
                      std::int32_t* acc, std::size_t rows,
                      std::size_t in_features, std::size_t out_features) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* __restrict xi = x + r * in_features;
    std::int32_t* __restrict accr = acc + r * out_features;
    std::size_t oc = 0;
    // Four output channels share every activation load and give the
    // autovectorizer four independent reduction chains.
    for (; oc + 4 <= out_features; oc += 4) {
      const std::int8_t* __restrict w0 = w + (oc + 0) * in_features;
      const std::int8_t* __restrict w1 = w + (oc + 1) * in_features;
      const std::int8_t* __restrict w2 = w + (oc + 2) * in_features;
      const std::int8_t* __restrict w3 = w + (oc + 3) * in_features;
      std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
#pragma omp simd reduction(+ : a0, a1, a2, a3)
      for (std::size_t ic = 0; ic < in_features; ++ic) {
        const std::int32_t xv = xi[ic];
        a0 += xv * w0[ic];
        a1 += xv * w1[ic];
        a2 += xv * w2[ic];
        a3 += xv * w3[ic];
      }
      accr[oc + 0] = a0;
      accr[oc + 1] = a1;
      accr[oc + 2] = a2;
      accr[oc + 3] = a3;
    }
    for (; oc < out_features; ++oc) {
      const std::int8_t* __restrict wr = w + oc * in_features;
      std::int32_t a = 0;
#pragma omp simd reduction(+ : a)
      for (std::size_t ic = 0; ic < in_features; ++ic)
        a += static_cast<std::int32_t>(xi[ic]) * wr[ic];
      accr[oc] = a;
    }
  }
}

void u8_requant_scalar(const std::int32_t* acc, std::size_t rows,
                       std::size_t out_features, std::int32_t zp_in,
                       const std::int32_t* row_sums, const std::int32_t* bias,
                       bool relu, float s_in, const float* weight_scales,
                       float next_scale, std::int32_t next_zp,
                       std::uint8_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* __restrict ar = acc + r * out_features;
    std::uint8_t* __restrict nr = out + r * out_features;
    for (std::size_t oc = 0; oc < out_features; ++oc) {
      std::int32_t a = ar[oc] - zp_in * row_sums[oc] + bias[oc];
      if (relu && a < 0) a = 0;
      // Keep the association order fixed: (float(a) * s_in) * ws[oc].
      // Every variant multiplies in exactly this order.
      const float real = static_cast<float>(a) * s_in * weight_scales[oc];
      const std::int32_t q =
          round_half_away_saturated(real / next_scale) + next_zp;
      nr[oc] = static_cast<std::uint8_t>(
          q < 0 ? 0 : (q > 255 ? 255 : q));
    }
  }
}

void require_f32_rows(std::size_t rows) {
  ADAPT_REQUIRE(rows >= 1 && rows <= kMaxF32TileRows,
                "f32_row_block: rows must be in 1.." +
                    std::to_string(kMaxF32TileRows) + ", got " +
                    std::to_string(rows));
}

void f32_row_block_scalar(const float* a, std::size_t lda, const float* b,
                          std::size_t ldb, float* c, std::size_t ldc,
                          std::size_t rows, std::size_t k, std::size_t j0,
                          std::size_t j1) {
  dispatch_f32_rows(rows, [&](auto rows_c) {
    constexpr int R = decltype(rows_c)::value;
    std::size_t j = j0;
    for (; j + kColChunk <= j1; j += kColChunk)
      micro_tile_full<R>(a, lda, b + j, ldb, c + j, ldc, k);
    if (j < j1)
      micro_tile_partial<R>(a, lda, b + j, ldb, c + j, ldc, k, j1 - j);
  });
}

}  // namespace adapt::nn::kernels::detail
