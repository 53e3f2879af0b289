/// AVX-512 band kernels: band_kernel_impl.hpp over eight double lanes
/// with mask registers.  This TU builds with -mavx512f and uses
/// AVX-512F instructions only (sign-bit logic on the integer view,
/// since the double-typed and/or need AVX-512DQ); the registry hands it
/// out only when cpuid + XCR0 say the machine runs AVX-512F.  Every
/// operation is the baseline lane type's per lane, as in avx2.cpp.

#ifdef ADAPT_LOC_KERNELS_HAVE_AVX512

#include <immintrin.h>

#include "loc/kernels/band_kernel_impl.hpp"

namespace adapt::loc::kernels {

namespace {

struct Avx512Lanes {
  using V = __m512d;
  using M = __mmask8;
  static constexpr std::size_t kLanes = 8;

  static V set1(double v) { return _mm512_set1_pd(v); }
  static M first_lanes(std::size_t n) {
    return n < kLanes ? static_cast<M>((1u << n) - 1u) : static_cast<M>(0xff);
  }
  static V load(const double* p, M m) { return _mm512_maskz_loadu_pd(m, p); }
  static void store(double* p, V v, M m) { _mm512_mask_storeu_pd(p, m, v); }
  static V sqrt(V v) { return _mm512_sqrt_pd(v); }
  static V abs(V v) { return _mm512_abs_pd(v); }
  static V copysign(V magnitude, V sign) {
    const __m512i sign_bit = _mm512_set1_epi64(static_cast<long long>(
        0x8000000000000000ull));
    return _mm512_castsi512_pd(_mm512_or_si512(
        _mm512_andnot_si512(sign_bit, _mm512_castpd_si512(magnitude)),
        _mm512_and_si512(sign_bit, _mm512_castpd_si512(sign))));
  }
  static V floor(V v) {
    return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static V max0(V v) { return _mm512_max_pd(v, _mm512_setzero_pd()); }
  static M lt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M gt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
  static M ge(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
  static M both(M a, M b) { return static_cast<M>(a & b); }
  static M either(M a, M b) { return static_cast<M>(a | b); }
  static M but_not(M a, M b) { return static_cast<M>(a & ~b); }
  static V select(M m, V if_set, V if_clear) {
    return _mm512_mask_blend_pd(m, if_clear, if_set);
  }
};

}  // namespace

std::size_t arc_ranges_avx512(const ArcRows& rows, const RingBand& ring,
                              double w, double* lanes, BinRanges* out) {
  return arc_ranges<Avx512Lanes>(rows, ring, w, lanes, out);
}

std::size_t fold_ranges_avx512(const ArcRows& rows, const BinRanges* ranges,
                               const RingBand& ring, double cap2,
                               const CentrePointers& centres,
                               double* excess) {
  return fold_ranges<Avx512Lanes>(rows, ranges, ring, cap2, centres, excess);
}

}  // namespace adapt::loc::kernels

#endif  // ADAPT_LOC_KERNELS_HAVE_AVX512
