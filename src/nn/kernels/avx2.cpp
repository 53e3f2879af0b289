/// AVX2 kernels.  This TU (alone with avx512.cpp) builds with
/// -mavx2 -ffp-contract=off; the registry only hands these out when
/// cpuid + XCR0 say the machine runs AVX2.
///
/// Bit-identity notes:
///  * INT8: activations widen u8->s16 and weights s8->s16, then
///    _mm256_madd_epi16 multiplies and pairwise-adds into int32 lanes.
///    Every product |x*w| <= 255*128 and each int32 lane holds the sum
///    of two such products (<= 65280), so nothing saturates and the
///    result is the exact integer dot product in some lane order —
///    integer addition is associative, so any order is the scalar
///    answer.  The tempting _mm256_maddubs_epi16 is NOT used: it
///    saturates its intermediate int16 pair sums (255*(-128)*2 <
///    INT16_MIN) and silently breaks identity.
///  * float: vector lanes map across C columns (j); each output
///    element still accumulates in ascending t with separate mul+add,
///    so per-element arithmetic is exactly the scalar sequence.

#ifdef ADAPT_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_impl.hpp"

namespace adapt::nn::kernels::detail {

namespace {

constexpr std::size_t kColChunk = 8;  ///< floats per YMM register.

inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// 16 activation bytes widened to sixteen int16 lanes.
inline __m256i load_u8_16(const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline __m256i load_s8_16(const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
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

void u8i8_gemm_avx2(const std::uint8_t* x, const std::int8_t* w,
                    std::int32_t* acc, std::size_t rows,
                    std::size_t in_features, std::size_t out_features) {
  const std::size_t vec_end = in_features & ~static_cast<std::size_t>(15);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* xi = x + r * in_features;
    std::int32_t* accr = acc + r * out_features;
    std::size_t oc = 0;
    for (; oc + 4 <= out_features; oc += 4) {
      const std::int8_t* w0 = w + (oc + 0) * in_features;
      const std::int8_t* w1 = w + (oc + 1) * in_features;
      const std::int8_t* w2 = w + (oc + 2) * in_features;
      const std::int8_t* w3 = w + (oc + 3) * in_features;
      __m256i v0 = _mm256_setzero_si256();
      __m256i v1 = _mm256_setzero_si256();
      __m256i v2 = _mm256_setzero_si256();
      __m256i v3 = _mm256_setzero_si256();
      for (std::size_t ic = 0; ic < vec_end; ic += 16) {
        const __m256i xv = load_u8_16(xi + ic);
        v0 = _mm256_add_epi32(v0, _mm256_madd_epi16(xv, load_s8_16(w0 + ic)));
        v1 = _mm256_add_epi32(v1, _mm256_madd_epi16(xv, load_s8_16(w1 + ic)));
        v2 = _mm256_add_epi32(v2, _mm256_madd_epi16(xv, load_s8_16(w2 + ic)));
        v3 = _mm256_add_epi32(v3, _mm256_madd_epi16(xv, load_s8_16(w3 + ic)));
      }
      std::int32_t a0 = hsum_epi32(v0);
      std::int32_t a1 = hsum_epi32(v1);
      std::int32_t a2 = hsum_epi32(v2);
      std::int32_t a3 = hsum_epi32(v3);
      for (std::size_t ic = vec_end; ic < in_features; ++ic) {
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
      const std::int8_t* wr = w + oc * in_features;
      __m256i v = _mm256_setzero_si256();
      for (std::size_t ic = 0; ic < vec_end; ic += 16)
        v = _mm256_add_epi32(
            v, _mm256_madd_epi16(load_u8_16(xi + ic), load_s8_16(wr + ic)));
      std::int32_t a = hsum_epi32(v);
      for (std::size_t ic = vec_end; ic < in_features; ++ic)
        a += static_cast<std::int32_t>(xi[ic]) * wr[ic];
      accr[oc] = a;
    }
  }
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

#endif  // ADAPT_KERNELS_HAVE_AVX2
