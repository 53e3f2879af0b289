/// AVX2 kernels.  This TU (alone with avx512.cpp) builds with
/// -mavx2 -ffp-contract=off; the registry only hands these out when
/// cpuid + XCR0 say the machine runs AVX2.
///
/// Bit-identity notes:
///  * INT8: activations widen u8->s16 and the packed panel's weights
///    s8->s16, then _mm256_madd_epi16 multiplies and pairwise-adds into
///    int32 lanes.  Every product |x*w| <= 255*128 and each int32 lane
///    holds the sum of two such products (<= 65280), so nothing
///    saturates and the result is the exact integer dot product in some
///    lane order — integer addition is associative, so any order is the
///    scalar answer.  The tempting _mm256_maddubs_epi16 is NOT used: it
///    saturates its intermediate int16 pair sums (255*(-128)*2 <
///    INT16_MIN) and silently breaks identity.
///  * float: vector lanes map across C columns (j); each output
///    element still accumulates in ascending t with separate mul+add,
///    so per-element arithmetic is exactly the scalar sequence.

#ifdef ADAPT_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_impl.hpp"

namespace adapt::nn::kernels::detail {

namespace {

constexpr std::size_t kColChunk = 8;  ///< floats per YMM register.

/// One 4-byte activation word widened to four int16 lanes and repeated
/// across the register: the madd_epi16 partner of a widened quarter
/// block, whose int16 lanes run (c, 0..3) for four channels c.
inline __m256i broadcast_word_s16(std::int32_t word) {
  return _mm256_broadcastq_epi64(_mm_cvtepu8_epi16(_mm_cvtsi32_si128(word)));
}

/// 16 output channels of one row from four quarter accumulators whose
/// lanes hold (channel, input-pair) partial sums: lanes (c, 0) and
/// (c, 1) are adjacent, so hadd pairs them and the 64-bit permute
/// undoes hadd's 128-bit interleave.
inline void store_channels(const __m256i q[4], std::int32_t* dst,
                           std::size_t n) {
  constexpr int kInterleave = _MM_SHUFFLE(3, 1, 2, 0);
  const __m256i lo =
      _mm256_permute4x64_epi64(_mm256_hadd_epi32(q[0], q[1]), kInterleave);
  const __m256i hi =
      _mm256_permute4x64_epi64(_mm256_hadd_epi32(q[2], q[3]), kInterleave);
  if (n == kPanelChannels) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8), hi);
    return;
  }
  alignas(32) std::int32_t lanes[kPanelChannels];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8), hi);
  std::memcpy(dst, lanes, n * sizeof(std::int32_t));
}

/// R activation rows x 16 output channels per column block.  A 64-byte
/// panel block splits into four 16-byte quarters of 4 channels x 4
/// inputs; each quarter widens once to int16 and is shared by the R
/// rows, and madd_epi16 against the row's broadcast word leaves one
/// (channel, input-pair) partial sum per int32 lane.  The pair sums
/// are folded into outputs once per block, not once per output.  R is
/// at most 2: 2 rows x 4 accumulators, their two broadcast words and
/// one widened quarter fit the 16 YMM registers (a 2-row tile divides
/// kU8I8RowTile).
template <int R>
inline void u8i8_tile(const std::uint8_t* x, const std::int8_t* panel,
                      std::int32_t* acc, std::size_t in_features,
                      std::size_t out_features) {
  const std::size_t groups = panel_groups(in_features);
  const std::size_t full = in_features / kPanelDepth;
  const std::uint8_t* row[R];
  std::int32_t tail[R];
  for (int r = 0; r < R; ++r) {
    row[r] = x + static_cast<std::size_t>(r) * in_features;
    tail[r] = load_tail_word(row[r] + full * kPanelDepth,
                             in_features % kPanelDepth);
  }
  for (std::size_t oc0 = 0; oc0 < out_features; oc0 += kPanelChannels) {
    const std::int8_t* blk =
        panel + oc0 / kPanelChannels * groups * kPanelBlockBytes;
    __m256i v[R][4];
    for (int r = 0; r < R; ++r)
      for (int q = 0; q < 4; ++q) v[r][q] = _mm256_setzero_si256();
    for (std::size_t g = 0; g < groups; ++g) {
      __m256i xw[R];
      for (int r = 0; r < R; ++r)
        xw[r] = broadcast_word_s16(
            g < full ? load_word(row[r] + g * kPanelDepth) : tail[r]);
      const std::int8_t* b = blk + g * kPanelBlockBytes;
      for (int q = 0; q < 4; ++q) {
        const __m256i wq = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 16 * q)));
        for (int r = 0; r < R; ++r)
          v[r][q] = _mm256_add_epi32(v[r][q], _mm256_madd_epi16(wq, xw[r]));
      }
    }
    const std::size_t n = std::min(kPanelChannels, out_features - oc0);
    for (int r = 0; r < R; ++r)
      store_channels(v[r], acc + static_cast<std::size_t>(r) * out_features +
                               oc0, n);
  }
}

/// Load mask covering the first jw (< 8) lanes: jw -1s then zeros.
inline __m256i tail_mask(std::size_t jw) {
  alignas(32) static constexpr std::int32_t kMask[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + (kColChunk - jw)));
}

template <int R>
inline void micro_tile_full(const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc,
                            std::size_t k) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (std::size_t t = 0; t < k; ++t) {
    const __m256 bt = _mm256_loadu_ps(b + t * ldb);
    for (int r = 0; r < R; ++r) {
      const __m256 ar =
          _mm256_set1_ps(a[static_cast<std::size_t>(r) * lda + t]);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(ar, bt));
    }
  }
  for (int r = 0; r < R; ++r)
    _mm256_storeu_ps(c + static_cast<std::size_t>(r) * ldc, acc[r]);
}

template <int R>
inline void micro_tile_partial(const float* a, std::size_t lda, const float* b,
                               std::size_t ldb, float* c, std::size_t ldc,
                               std::size_t k, std::size_t jw) {
  const __m256i mask = tail_mask(jw);
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (std::size_t t = 0; t < k; ++t) {
    const __m256 bt = _mm256_maskload_ps(b + t * ldb, mask);
    for (int r = 0; r < R; ++r) {
      const __m256 ar =
          _mm256_set1_ps(a[static_cast<std::size_t>(r) * lda + t]);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(ar, bt));
    }
  }
  for (int r = 0; r < R; ++r)
    _mm256_maskstore_ps(c + static_cast<std::size_t>(r) * ldc, mask, acc[r]);
}

}  // namespace

void u8i8_gemm_avx2(const std::uint8_t* x, const std::int8_t* panel,
                    std::int32_t* acc, std::size_t rows,
                    std::size_t in_features, std::size_t out_features) {
  // Pairs of rows, then the odd one out.
  static_assert(kU8I8RowTile % 2 == 0);
  std::size_t r0 = 0;
  for (; r0 + 2 <= rows; r0 += 2)
    u8i8_tile<2>(x + r0 * in_features, panel, acc + r0 * out_features,
                 in_features, out_features);
  if (r0 < rows)
    u8i8_tile<1>(x + r0 * in_features, panel, acc + r0 * out_features,
                 in_features, out_features);
}

/// Requant epilogue, 8 output channels per iteration.  The rounding
/// path widens to double and adds copysign(0.5) before truncating —
/// the exact half-away-from-zero sequence round_half_away_saturated
/// takes, lane for lane (see kernels.hpp for the NaN/clamp analysis).
void u8_requant_avx2(const std::int32_t* acc, std::size_t rows,
                     std::size_t out_features, std::int32_t zp_in,
                     const std::int32_t* row_sums, const std::int32_t* bias,
                     bool relu, float s_in, const float* weight_scales,
                     float next_scale, std::int32_t next_zp,
                     std::uint8_t* out) {
  const __m256i vzp_in = _mm256_set1_epi32(zp_in);
  const __m256i vnext_zp = _mm256_set1_epi32(next_zp);
  const __m256 vs_in = _mm256_set1_ps(s_in);
  const __m256 vnext_scale = _mm256_set1_ps(next_scale);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d vsign = _mm256_set1_pd(-0.0);
  const __m256d vlo = _mm256_set1_pd(-512.0);
  const __m256d vhi = _mm256_set1_pd(512.0);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i v255 = _mm256_set1_epi32(255);
  const std::size_t vec_end = out_features & ~static_cast<std::size_t>(7);

  // Round one double quartet: clamp to [-512, 512] (max/min return the
  // second operand on NaN, so NaN lands on -512 exactly like the
  // scalar helper's fallthrough arm), add copysign(0.5), truncate.
  const auto round4 = [&](__m256d d) {
    d = _mm256_min_pd(_mm256_max_pd(d, vlo), vhi);
    const __m256d half = _mm256_or_pd(vhalf, _mm256_and_pd(d, vsign));
    return _mm256_cvttpd_epi32(_mm256_add_pd(d, half));
  };

  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* ar = acc + r * out_features;
    std::uint8_t* nr = out + r * out_features;
    std::size_t oc = 0;
    for (; oc < vec_end; oc += 8) {
      __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ar + oc));
      const __m256i rs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row_sums + oc));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bias + oc));
      a = _mm256_add_epi32(_mm256_sub_epi32(a, _mm256_mullo_epi32(vzp_in, rs)),
                           b);
      if (relu) a = _mm256_max_epi32(a, vzero);
      // (float(a) * s_in) * ws — the scalar association order.
      const __m256 f = _mm256_cvtepi32_ps(a);
      const __m256 real = _mm256_mul_ps(_mm256_mul_ps(f, vs_in),
                                        _mm256_loadu_ps(weight_scales + oc));
      const __m256 y = _mm256_div_ps(real, vnext_scale);
      const __m128i qlo = round4(_mm256_cvtps_pd(_mm256_castps256_ps128(y)));
      const __m128i qhi = round4(_mm256_cvtps_pd(_mm256_extractf128_ps(y, 1)));
      __m256i q = _mm256_add_epi32(_mm256_set_m128i(qhi, qlo), vnext_zp);
      q = _mm256_min_epi32(_mm256_max_epi32(q, vzero), v255);
      // 8 x int32 in [0, 255] -> 8 bytes (the packs cannot saturate).
      const __m128i w16 = _mm_packus_epi32(_mm256_castsi256_si128(q),
                                           _mm256_extracti128_si256(q, 1));
      const __m128i w8 = _mm_packus_epi16(w16, w16);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(nr + oc), w8);
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

void f32_row_block_avx2(const float* a, std::size_t lda, const float* b,
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

#endif  // ADAPT_KERNELS_HAVE_AVX2
