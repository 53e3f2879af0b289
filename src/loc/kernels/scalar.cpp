/// Baseline band kernels: band_kernel_impl.hpp over two double lanes
/// of the compilers' generic vector type (SSE2 on any x86-64, NEON on
/// AArch64, pairs of scalar operations elsewhere).  They are the
/// reference every SIMD variant must match bit for bit, and the
/// shipped path on CPUs (or builds) without AVX2.  Built with the
/// baseline flags plus -ffp-contract=off and -fno-math-errno, like
/// every kernel TU: no variant may fuse a mul+add, and sqrt is then an
/// instruction instead of a guarded libm call.  sqrt, abs, copysign and
/// floor go lane by lane through ScalarLanes; + - * /, the compares and
/// the select are the vector type's own, element by element.

#include "loc/kernels/band_kernel_impl.hpp"

namespace adapt::loc::kernels {

namespace {

struct PairLanes {
  using V = double __attribute__((vector_size(16)));
  /// All ones where set.
  using M = long long __attribute__((vector_size(16)));
  static constexpr std::size_t kLanes = 2;

  static V set1(double v) { return V{v, v}; }
  static M first_lanes(std::size_t n) {
    return M{n > 0 ? -1LL : 0LL, n > 1 ? -1LL : 0LL};
  }
  static V load(const double* p, M m) {
    return V{m[0] != 0 ? p[0] : 0.0, m[1] != 0 ? p[1] : 0.0};
  }
  static void store(double* p, V v, M m) {
    if (m[0] != 0) p[0] = v[0];
    if (m[1] != 0) p[1] = v[1];
  }
  static V sqrt(V v) {
    return V{ScalarLanes::sqrt(v[0]), ScalarLanes::sqrt(v[1])};
  }
  static V abs(V v) {
    return V{ScalarLanes::abs(v[0]), ScalarLanes::abs(v[1])};
  }
  static V copysign(V magnitude, V sign) {
    return V{ScalarLanes::copysign(magnitude[0], sign[0]),
             ScalarLanes::copysign(magnitude[1], sign[1])};
  }
  static V floor(V v) {
    return V{ScalarLanes::floor(v[0]), ScalarLanes::floor(v[1])};
  }
  /// std::max(0.0, v): +0.0 unless v > 0, NaN included.
  static V max0(V v) { return v > 0.0 ? v : V{}; }
  static M lt(V a, V b) { return a < b; }
  static M gt(V a, V b) { return a > b; }
  static M ge(V a, V b) { return a >= b; }
  static M both(M a, M b) { return a & b; }
  static M either(M a, M b) { return a | b; }
  static M but_not(M a, M b) { return a & ~b; }
  static V select(M m, V if_set, V if_clear) { return m ? if_set : if_clear; }
};

}  // namespace

std::size_t arc_ranges_scalar(const ArcRows& rows, const RingBand& ring,
                              double w, double* lanes, BinRanges* out) {
  return arc_ranges<PairLanes>(rows, ring, w, lanes, out);
}

std::size_t fold_ranges_scalar(const ArcRows& rows, const BinRanges* ranges,
                               const RingBand& ring, double cap2,
                               const CentrePointers& centres,
                               double* excess) {
  return fold_ranges<PairLanes>(rows, ranges, ring, cap2, centres, excess);
}

}  // namespace adapt::loc::kernels
