#pragma once

/// \file arc_ranges.hpp
/// Which pixels of each grid row a ring's truncation band can reach:
/// the candidate azimuth-bin ranges the streaming localizer's band
/// fold (incremental.hpp) tests.
///
/// On the row at polar angle theta, the ring dot product is
///   c.s(phi) = m + s * cos(phi - phi0),
///   m = c_z cos(theta), s = hypot(c_x, c_y) sin(theta),
///   phi0 = atan2(c_y, c_x),
/// so the band |c.s - eta| <= w selects up to two azimuth arcs,
/// symmetric about phi0, whose ends are phi0 +- acos(hi) and
/// phi0 +- acos(lo) with lo = (eta - w - m) / s, hi = (eta + w - m) / s
/// (clamped to [-1, 1]).  A row's ranges hold the bins whose centres
/// lie inside each arc widened by kArcSlackBins, plus one guard bin on
/// each side.
///
/// ArcRanges builds them for a list of rows at once, in two stages:
///   1. one lane loop over the rows (`#pragma omp simd`, plain C++):
///      m, s, lo and hi with the exact expressions above, then the four
///      arc-end bin coordinates from acos_approx();
///   2. a scalar pass that floors each coordinate to an integer.  A
///      coordinate within the row's margin of an integer — where the
///      polynomial's error could flip the floor — sends the row to the
///      exact computation (libm acos, ceil and floor), as do the rows
///      with s < 1e-12, whose band is azimuth-independent.
/// Stage 2 keeps a coordinate only when every value within the margin
/// floors to the same integer, and the margin covers the polynomial's
/// error plus the rounding of the coordinate expression, so every
/// range equals the exact computation's (tests/loc/arc_ranges_test.cpp
/// holds it to the per-row libm oracle on every row of 0.5/1/2/8 deg
/// grids, including rings built to put an arc end on a bin boundary).
/// The exact path is the only second arc path; a row sent to it by the
/// margin bumps the `loc.incremental.arc_fallbacks` counter.
///
/// Ranges are inclusive *unwrapped* bin intervals: the first bin lies
/// in [-bins - 1, bins - 1], so a range is at most two contiguous runs
/// of the row, and the ranges of a row are duplicate-free mod bins.

#include <array>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "loc/sky_grid.hpp"

namespace adapt::loc {

/// Slack [bins] by which a candidate range reaches past the pixel
/// centres inside the analytic arc.  The arc ends come from acos of a
/// rounded cosine, so they can sit a rounding error away from where
/// the per-pixel test flips; this slack plus the guard bins absorbs
/// that, and is far below a bin, so it adds almost no wasted tests.
inline constexpr double kArcSlackBins = 0.02;

/// Up to two inclusive unwrapped azimuth-bin ranges of one row.
struct BinRanges {
  std::array<std::pair<long, long>, 2> r;
  int n = 0;
};

/// Margin [rad] stage 2 allows for the difference between
/// acos_approx() and std::acos.  The polynomial's measured error is at
/// most a quarter of it over [-1, 1]: 1.5e-13 rad over the 2^21+
/// inputs tests/loc/arc_ranges_test.cpp sweeps, +-1 and 1 - 2^-k
/// included.
inline constexpr double kAcosMarginRad = 1e-11;

/// acos(x), x clamped to [-1, 1], to within kAcosMarginRad / 4, from
/// acos(a) = 2 asin(t), a = |x|, t = sqrt(z), z = (1 - a) / 2, and
/// asin(t) = t + t z P(z) for z in [0, 1/2], where P is a degree-13
/// Chebyshev fit; acos(x) = pi/2 - copysign(pi/2 - acos(a), x).
/// Written for a `#pragma omp simd` lane, so it has no select at all:
/// the clamp is z = (z + |z|) / 2, exact, which makes |x| >= 1 give
/// z = 0 (GCC does not if-convert a min/max against a constant under
/// the default -ftrapping-math, and the loop would stay scalar).
/// acos(+-1) is exact.
inline double acos_approx(double x) {
  constexpr double kHalfPi = 1.5707963267948966;
  const double half_gap = 0.5 * (1.0 - std::abs(x));
  const double z = 0.5 * (half_gap + std::abs(half_gap));
  const double t = std::sqrt(z);
  double p = 2.7275553183974021712e-01;
  p = p * z - 6.5899340452269426886e-01;
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
  const double acos_a = 2.0 * (t + t * z * p);
  return kHalfPi - std::copysign(kHalfPi - acos_a, x);
}

/// Candidate bin ranges of a list of grid rows for one ring band.
/// Storage is sized at construction; build() allocates nothing.
class ArcRanges {
 public:
  ArcRanges() = default;
  /// Room for `capacity` rows; none listed yet.
  explicit ArcRanges(std::size_t capacity);

  /// List `row` of `grid` (at most `capacity` rows in all).
  void add_row(const SkyGrid& grid, std::size_t row);
  void clear() { n_ = 0; }
  std::size_t size() const { return n_; }
  /// Grid row of listed entry `k`.
  std::size_t row(std::size_t k) const { return row_[k]; }

  /// Ranges of every listed row for the band |c.s - eta| <= w of a
  /// ring with axis z-component `axis_z`, axis_xy = hypot(c_x, c_y)
  /// and phi0 = atan2(c_y, c_x).  Returns the rows sent to the exact
  /// computation because a coordinate fell within the margin.
  std::size_t build(double axis_z, double axis_xy, double phi0, double eta,
                    double w);
  /// Ranges of listed entry `k` from the last build().
  const BinRanges& ranges(std::size_t k) const { return ranges_[k]; }

 private:
  std::size_t n_ = 0;
  // Row geometry, one entry per listed row.
  std::vector<std::size_t> row_;
  std::vector<int> bins_;
  std::vector<double> cos_;
  std::vector<double> sin_;
  std::vector<double> inv_bin_w_;
  std::vector<double> margin_;  ///< Stage-2 margin [bins].
  // Stage-1 lanes.
  std::vector<double> m_;
  std::vector<double> s_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::array<std::vector<double>, 4> ends_;  ///< Arc-end coordinates.
  std::vector<BinRanges> ranges_;
};

}  // namespace adapt::loc
