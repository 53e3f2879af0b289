#pragma once

/// \file lanes.hpp
/// The lane interface the band kernels are written against, and the
/// arc-end polynomial every variant evaluates.
///
/// A lane type L supplies V (kLanes doubles: a generic two-lane vector,
/// __m256d or __m512d), M (a lane mask), kLanes, and the operations the
/// kernels need beyond + - * / (which GCC and Clang define on their
/// vector types element by element, with a scalar operand broadcast):
/// a broadcast, the mask of the first n lanes, masked load and store,
/// sqrt, abs, copysign, floor, std::max(0.0, v), compares, mask logic
/// and select.  Each operation is the IEEE operation of its scalar
/// namesake, lane by lane, so one expression written once computes the
/// same bits in every variant.  The lane types live in the variants'
/// own translation units (scalar.cpp, avx2.cpp, avx512.cpp), which
/// alone are built with the matching -m flags.

#include <cmath>
#include <cstddef>

namespace adapt::loc::kernels {

/// One double: what acos_approx() evaluates on, and the per-lane
/// operations of the baseline variant's two-lane type (scalar.cpp).
struct ScalarLanes {
  using V = double;

  static V sqrt(V v) { return std::sqrt(v); }
  static V abs(V v) { return std::abs(v); }
  static V copysign(V magnitude, V sign) {
    return std::copysign(magnitude, sign);
  }
  /// floor(v) without a libm call (baseline x86-64 has no roundsd):
  /// exact below 2^52 through the truncating conversion, whose one
  /// branch follows the sign of v and so predicts well; larger
  /// magnitudes are integers already, and NaN stays NaN.  -0.0 gives
  /// +0.0, which no caller can tell apart: a zero fraction is inside
  /// every margin.
  static V floor(V v) {
    if (!(std::abs(v) < 0x1p52)) return v;
    const auto t = static_cast<double>(static_cast<long long>(v));
    return v < t ? t - 1.0 : t;
  }
};

/// acos(x), x clamped to [-1, 1], to within kAcosMarginRad / 4, per
/// lane, from acos(a) = 2 asin(t), a = |x|, t = sqrt(z),
/// z = (1 - a) / 2, and asin(t) = t + t z P(z) for z in [0, 1/2], where
/// P is a degree-13 Chebyshev fit; acos(x) = pi/2 - copysign(pi/2 -
/// acos(a), x).  It has no select at all: the clamp is
/// z = (z + |z|) / 2, exact, which makes |x| >= 1 give z = 0.
/// acos(+-1) is exact.
template <class L>
[[gnu::always_inline]] inline typename L::V acos_approx_lanes(
    typename L::V x) {
  using V = typename L::V;
  constexpr double kHalfPi = 1.5707963267948966;
  const V half_gap = 0.5 * (1.0 - L::abs(x));
  const V z = 0.5 * (half_gap + L::abs(half_gap));
  const V t = L::sqrt(z);
  // The leading coefficient times z: p = c13, p = p * z - c12 in
  // the scalar form, without a broadcast.
  V p = 2.7275553183974021712e-01 * z - 6.5899340452269426886e-01;
  p = p * z + 7.7887900617781156630e-01;
  p = p * z - 5.2986087116940337614e-01;
  p = p * z + 2.5341443311679616584e-01;
  p = p * z - 6.6518244289364517465e-02;
  p = p * z + 2.7974103623068281750e-02;
  p = p * z + 1.1533311306990201565e-02;
  p = p * z + 1.7594705441414249947e-02;
  p = p * z + 2.2356686105944396430e-02;
  p = p * z + 3.0382533332930168753e-02;
  p = p * z + 4.4642845513576215094e-02;
  p = p * z + 7.5000000089992989656e-02;
  p = p * z + 1.6666666666655174335e-01;
  const V acos_a = 2.0 * (t + t * z * p);
  return kHalfPi - L::copysign(kHalfPi - acos_a, x);
}

}  // namespace adapt::loc::kernels
