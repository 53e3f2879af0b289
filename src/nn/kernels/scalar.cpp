/// Scalar reference kernels.  Every SIMD variant must match these bit
/// for bit; they are also the shipped fallback on CPUs (or builds)
/// without AVX2, so they are written for the autovectorizer: the INT8
/// kernel accumulates the 64 lanes of one packed panel block, the
/// float kernel keeps a column chunk of independent accumulators.
///
/// This TU builds with the project's baseline flags plus
/// -ffp-contract=off: the float kernel's mul+add must stay unfused so
/// the scalar path computes exactly what the hand-vectorized variants
/// compute (they have no FMA to fall into, but the *compiler* could
/// contract here and break identity from the reference side).

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_impl.hpp"

#include <algorithm>
#include <cstring>
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

/// Adds one panel block's products with the activation word to the 64
/// lanes a[4c + j] (channel c, input byte j of the group), the lanes
/// VPDPBUSD fills.
inline void accumulate_block(std::int32_t* __restrict a, std::int32_t word,
                             const std::int8_t* __restrict b) {
  // The word repeated across the block, so the multiply below is a
  // plain lane-by-lane loop.
  std::uint8_t xr[kPanelBlockBytes];
  for (std::size_t c = 0; c < kPanelChannels; ++c)
    std::memcpy(xr + c * kPanelDepth, &word, sizeof word);
  // |u8 * s8| <= 255 * 128 fits int16 exactly, so the product is a
  // 16-bit multiply the vectorizer can pack 8 to a register.
  for (std::size_t i = 0; i < kPanelBlockBytes; ++i)
    a[i] += static_cast<std::int16_t>(xr[i] * b[i]);
}

}  // namespace

void u8i8_gemm_scalar(const std::uint8_t* x, const std::int8_t* panel,
                      std::int32_t* acc, std::size_t rows,
                      std::size_t in_features, std::size_t out_features) {
  const std::size_t groups = panel_groups(in_features);
  const std::size_t full = in_features / kPanelDepth;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* xi = x + r * in_features;
    std::int32_t* accr = acc + r * out_features;
    const std::int32_t tail =
        load_tail_word(xi + full * kPanelDepth, in_features % kPanelDepth);
    for (std::size_t oc0 = 0; oc0 < out_features; oc0 += kPanelChannels) {
      const std::int8_t* blk = panel + oc0 / kPanelChannels * groups *
                                           kPanelBlockBytes;
      std::int32_t a[kPanelBlockBytes] = {};
      for (std::size_t g = 0; g < full; ++g)
        accumulate_block(a, load_word(xi + g * kPanelDepth),
                         blk + g * kPanelBlockBytes);
      if (full < groups)
        accumulate_block(a, tail, blk + full * kPanelBlockBytes);
      const std::size_t n = std::min(kPanelChannels, out_features - oc0);
      for (std::size_t c = 0; c < n; ++c)
        accr[oc0 + c] = a[c * kPanelDepth] + a[c * kPanelDepth + 1] +
                        a[c * kPanelDepth + 2] + a[c * kPanelDepth + 3];
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

void require_tile_rows(std::size_t rows) {
  ADAPT_REQUIRE(rows >= 1 && rows <= kMaxTileRows,
                "f32_row_block: rows must be in 1.." +
                    std::to_string(kMaxTileRows) + ", got " +
                    std::to_string(rows));
}

void f32_row_block_scalar(const float* a, std::size_t lda, const float* b,
                          std::size_t ldb, float* c, std::size_t ldc,
                          std::size_t rows, std::size_t k, std::size_t j0,
                          std::size_t j1) {
  dispatch_tile_rows(rows, [&](auto rows_c) {
    constexpr int R = decltype(rows_c)::value;
    std::size_t j = j0;
    for (; j + kColChunk <= j1; j += kColChunk)
      micro_tile_full<R>(a, lda, b + j, ldb, c + j, ldc, k);
    if (j < j1)
      micro_tile_partial<R>(a, lda, b + j, ldb, c + j, ldc, k, j1 - j);
  });
}

}  // namespace adapt::nn::kernels::detail

namespace adapt::nn::kernels {

void pack_panel(const std::int8_t* w, std::size_t in_features,
                std::size_t out_features, std::int8_t* panel) {
  const std::size_t groups = panel_groups(in_features);
  std::int8_t* dst = panel;
  for (std::size_t oc0 = 0; oc0 < out_features; oc0 += kPanelChannels) {
    for (std::size_t g = 0; g < groups; ++g, dst += kPanelBlockBytes) {
      const std::size_t ic0 = g * kPanelDepth;
      if (oc0 + kPanelChannels <= out_features &&
          ic0 + kPanelDepth <= in_features) {
        // An interior block: one 4-byte copy per channel.
        for (std::size_t c = 0; c < kPanelChannels; ++c)
          std::memcpy(dst + c * kPanelDepth, w + (oc0 + c) * in_features + ic0,
                      kPanelDepth);
        continue;
      }
      for (std::size_t c = 0; c < kPanelChannels; ++c)
        for (std::size_t j = 0; j < kPanelDepth; ++j) {
          const std::size_t oc = oc0 + c, ic = ic0 + j;
          dst[c * kPanelDepth + j] = oc < out_features && ic < in_features
                                         ? w[oc * in_features + ic]
                                         : std::int8_t{0};
        }
    }
  }
}

}  // namespace adapt::nn::kernels
