/// AVX2 band kernels: band_kernel_impl.hpp over four double lanes.
/// This TU alone (with avx512.cpp) builds with -mavx2; the registry
/// hands it out only when cpuid + XCR0 say the machine runs AVX2.
/// Every operation below is the baseline lane type's (scalar.cpp) per
/// lane: max_pd returns its second operand on NaN or a tie, which is
/// std::max(0.0, v); the compares are ordered and quiet, as C++'s.

#ifdef ADAPT_LOC_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include "loc/kernels/band_kernel_impl.hpp"

namespace adapt::loc::kernels {

namespace {

struct Avx2Lanes {
  using V = __m256d;
  using M = __m256d;  ///< All-ones lanes where set.
  static constexpr std::size_t kLanes = 4;

  static V set1(double v) { return _mm256_set1_pd(v); }
  static M first_lanes(std::size_t n) {
    const auto live = static_cast<long long>(n < kLanes ? n : kLanes);
    return _mm256_castsi256_pd(_mm256_cmpgt_epi64(
        _mm256_set1_epi64x(live), _mm256_setr_epi64x(0, 1, 2, 3)));
  }
  static V load(const double* p, M m) {
    return _mm256_maskload_pd(p, _mm256_castpd_si256(m));
  }
  static void store(double* p, V v, M m) {
    _mm256_maskstore_pd(p, _mm256_castpd_si256(m), v);
  }
  static V sqrt(V v) { return _mm256_sqrt_pd(v); }
  static V abs(V v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }
  static V copysign(V magnitude, V sign) {
    const V sign_bit = _mm256_set1_pd(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign_bit, magnitude),
                        _mm256_and_pd(sign_bit, sign));
  }
  static V floor(V v) { return _mm256_floor_pd(v); }
  static V max0(V v) { return _mm256_max_pd(v, _mm256_setzero_pd()); }
  static M lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M gt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static M ge(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static M both(M a, M b) { return _mm256_and_pd(a, b); }
  static M either(M a, M b) { return _mm256_or_pd(a, b); }
  static M but_not(M a, M b) { return _mm256_andnot_pd(b, a); }
  static V select(M m, V if_set, V if_clear) {
    return _mm256_blendv_pd(if_clear, if_set, m);
  }
};

}  // namespace

std::size_t arc_ranges_avx2(const ArcRows& rows, const RingBand& ring,
                            double w, double* lanes, BinRanges* out) {
  return arc_ranges<Avx2Lanes>(rows, ring, w, lanes, out);
}

std::size_t fold_ranges_avx2(const ArcRows& rows, const BinRanges* ranges,
                             const RingBand& ring, double cap2,
                             const CentrePointers& centres, double* excess) {
  return fold_ranges<Avx2Lanes>(rows, ranges, ring, cap2, centres, excess);
}

}  // namespace adapt::loc::kernels

#endif  // ADAPT_LOC_KERNELS_HAVE_AVX2
