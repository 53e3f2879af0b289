/// AVX-512 (VNNI) kernels.  This TU builds with
/// -mavx512f -mavx512bw -mavx512vl -mavx512vnni -ffp-contract=off and
/// is dispatched only when cpuid + XCR0 report the full set.
///
/// Bit-identity notes:
///  * INT8: VPDPBUSD (_mm512_dpbusd_epi32) multiplies u8 x s8 and
///    accumulates four products per int32 lane WITHOUT saturation —
///    the exact integer dot product, associatively reordered.  (Its
///    sibling VPDPBUSDS saturates and must never be used here.)
///    Lane c of a block's product is output channel c (the packed
///    panel layout, kernels.hpp); zero panel padding contributes exact
///    zeros, and a row's partial last word is zero-filled, never read
///    past the row.
///  * float: 16 C columns per ZMM; per-element math is the same
///    ascending-t unfused mul+add as the scalar reference, with mask
///    stores for column tails.

#ifdef ADAPT_KERNELS_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_impl.hpp"

namespace adapt::nn::kernels::detail {

namespace {

constexpr std::size_t kColChunk = 16;  ///< floats per ZMM register.

/// R activation rows x 16 output channels per column block, one ZMM
/// accumulator per row.  Each 64-byte panel block is loaded once and
/// fed to all R rows against their broadcast 4-byte activation word,
/// so a block's 16 outputs come straight out of the accumulator lanes:
/// no horizontal sum, and a 13-wide layer fills every lane.  Output
/// columns past out_features are masked off at the store.
template <int R>
inline void u8i8_tile(const std::uint8_t* x, const std::int8_t* panel,
                      std::int32_t* acc, std::size_t in_features,
                      std::size_t out_features) {
  const std::size_t groups = panel_groups(in_features);
  const std::size_t full = in_features / kPanelDepth;
  const std::uint8_t* row[R];
  __m512i tail[R];
  for (int r = 0; r < R; ++r) {
    row[r] = x + static_cast<std::size_t>(r) * in_features;
    tail[r] = _mm512_set1_epi32(load_tail_word(
        row[r] + full * kPanelDepth, in_features % kPanelDepth));
  }
  for (std::size_t oc0 = 0; oc0 < out_features; oc0 += kPanelChannels) {
    const std::int8_t* blk =
        panel + oc0 / kPanelChannels * groups * kPanelBlockBytes;
    __m512i v[R];
    for (int r = 0; r < R; ++r) v[r] = _mm512_setzero_si512();
    for (std::size_t g = 0; g < full; ++g) {
      const __m512i w = _mm512_loadu_si512(
          static_cast<const void*>(blk + g * kPanelBlockBytes));
      for (int r = 0; r < R; ++r)
        v[r] = _mm512_dpbusd_epi32(
            v[r], _mm512_set1_epi32(load_word(row[r] + g * kPanelDepth)), w);
    }
    if (full < groups) {
      const __m512i w = _mm512_loadu_si512(
          static_cast<const void*>(blk + full * kPanelBlockBytes));
      for (int r = 0; r < R; ++r)
        v[r] = _mm512_dpbusd_epi32(v[r], tail[r], w);
    }
    const std::size_t n = std::min(kPanelChannels, out_features - oc0);
    const auto mask = static_cast<__mmask16>((1u << n) - 1u);
    for (int r = 0; r < R; ++r)
      _mm512_mask_storeu_epi32(
          acc + static_cast<std::size_t>(r) * out_features + oc0, mask, v[r]);
  }
}

template <int R>
inline void micro_tile_full(const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc,
                            std::size_t k) {
  __m512 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  for (std::size_t t = 0; t < k; ++t) {
    const __m512 bt = _mm512_loadu_ps(b + t * ldb);
    for (int r = 0; r < R; ++r) {
      const __m512 ar =
          _mm512_set1_ps(a[static_cast<std::size_t>(r) * lda + t]);
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(ar, bt));
    }
  }
  for (int r = 0; r < R; ++r)
    _mm512_storeu_ps(c + static_cast<std::size_t>(r) * ldc, acc[r]);
}

template <int R>
inline void micro_tile_partial(const float* a, std::size_t lda, const float* b,
                               std::size_t ldb, float* c, std::size_t ldc,
                               std::size_t k, std::size_t jw) {
  const auto mask = static_cast<__mmask16>((1u << jw) - 1u);
  __m512 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  for (std::size_t t = 0; t < k; ++t) {
    const __m512 bt = _mm512_maskz_loadu_ps(mask, b + t * ldb);
    for (int r = 0; r < R; ++r) {
      const __m512 ar =
          _mm512_set1_ps(a[static_cast<std::size_t>(r) * lda + t]);
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(ar, bt));
    }
  }
  for (int r = 0; r < R; ++r)
    _mm512_mask_storeu_ps(c + static_cast<std::size_t>(r) * ldc, mask, acc[r]);
}

}  // namespace

void u8i8_gemm_avx512(const std::uint8_t* x, const std::int8_t* panel,
                      std::int32_t* acc, std::size_t rows,
                      std::size_t in_features, std::size_t out_features) {
  static_assert(kU8I8RowTile <= kMaxTileRows);
  for (std::size_t r0 = 0; r0 < rows; r0 += kU8I8RowTile) {
    const std::size_t tile = std::min(kU8I8RowTile, rows - r0);
    dispatch_tile_rows(tile, [&](auto rows_c) {
      u8i8_tile<decltype(rows_c)::value>(x + r0 * in_features, panel,
                                         acc + r0 * out_features,
                                         in_features, out_features);
    });
  }
}

/// Requant epilogue, 16 output channels per iteration.  Same exact
/// rounding sequence as the AVX2 variant (widen to double, clamp
/// ±512 with NaN falling to -512, add copysign(0.5), truncate); the
/// double-precision bitwise ops go through si512 casts because the
/// pd forms of and/or need AVX512DQ, which this kernel class does not
/// require.
void u8_requant_avx512(const std::int32_t* acc, std::size_t rows,
                       std::size_t out_features, std::int32_t zp_in,
                       const std::int32_t* row_sums, const std::int32_t* bias,
                       bool relu, float s_in, const float* weight_scales,
                       float next_scale, std::int32_t next_zp,
                       std::uint8_t* out) {
  const __m512i vzp_in = _mm512_set1_epi32(zp_in);
  const __m512i vnext_zp = _mm512_set1_epi32(next_zp);
  const __m512 vs_in = _mm512_set1_ps(s_in);
  const __m512 vnext_scale = _mm512_set1_ps(next_scale);
  const __m512d vhalf = _mm512_set1_pd(0.5);
  const __m512i vsign = _mm512_set1_epi64(static_cast<long long>(1ULL << 63));
  const __m512d vlo = _mm512_set1_pd(-512.0);
  const __m512d vhi = _mm512_set1_pd(512.0);
  const __m512i vzero = _mm512_setzero_si512();
  const __m512i v255 = _mm512_set1_epi32(255);
  const std::size_t vec_end = out_features & ~static_cast<std::size_t>(15);

  const auto round8 = [&](__m512d d) {
    d = _mm512_min_pd(_mm512_max_pd(d, vlo), vhi);
    const __m512i sign_bits =
        _mm512_and_si512(_mm512_castpd_si512(d), vsign);
    const __m512d half = _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_castpd_si512(vhalf), sign_bits));
    return _mm512_cvttpd_epi32(_mm512_add_pd(d, half));
  };

  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* ar = acc + r * out_features;
    std::uint8_t* nr = out + r * out_features;
    std::size_t oc = 0;
    for (; oc < vec_end; oc += 16) {
      __m512i a =
          _mm512_loadu_si512(static_cast<const void*>(ar + oc));
      const __m512i rs =
          _mm512_loadu_si512(static_cast<const void*>(row_sums + oc));
      const __m512i b =
          _mm512_loadu_si512(static_cast<const void*>(bias + oc));
      a = _mm512_add_epi32(_mm512_sub_epi32(a, _mm512_mullo_epi32(vzp_in, rs)),
                           b);
      if (relu) a = _mm512_max_epi32(a, vzero);
      const __m512 f = _mm512_cvtepi32_ps(a);
      const __m512 real = _mm512_mul_ps(_mm512_mul_ps(f, vs_in),
                                        _mm512_loadu_ps(weight_scales + oc));
      const __m512 y = _mm512_div_ps(real, vnext_scale);
      // Split into two float octets (extractf64x4 is AVX512F; the f32x8
      // form would need DQ) and widen each to doubles for rounding.
      const __m256 ylo = _mm512_castps512_ps256(y);
      const __m256 yhi = _mm256_castpd_ps(
          _mm512_extractf64x4_pd(_mm512_castps_pd(y), 1));
      const __m256i qlo = round8(_mm512_cvtps_pd(ylo));
      const __m256i qhi = round8(_mm512_cvtps_pd(yhi));
      __m512i q = _mm512_inserti64x4(_mm512_castsi256_si512(qlo), qhi, 1);
      q = _mm512_add_epi32(q, vnext_zp);
      q = _mm512_min_epi32(_mm512_max_epi32(q, vzero), v255);
      // 16 x int32 in [0, 255] -> 16 bytes (VPMOVDB truncates; values
      // are already in byte range).
      _mm_storeu_si128(reinterpret_cast<__m128i*>(nr + oc),
                       _mm512_cvtepi32_epi8(q));
    }
    for (; oc < out_features; ++oc) {
      std::int32_t a = ar[oc] - zp_in * row_sums[oc] + bias[oc];
      if (relu && a < 0) a = 0;
      const float real = static_cast<float>(a) * s_in * weight_scales[oc];
      const std::int32_t q =
          round_half_away_saturated(real / next_scale) + next_zp;
      nr[oc] = static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
    }
  }
}

void f32_row_block_avx512(const float* a, std::size_t lda, const float* b,
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

#endif  // ADAPT_KERNELS_HAVE_AVX512
