#pragma once

/// \file arc_ranges.hpp
/// Which pixels of each grid row a ring's truncation band can reach
/// (the candidate azimuth-bin ranges), and the per-ring band update
/// that folds a ring into them: the streaming localizer's hot loop
/// (incremental.hpp).
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
/// ArcRanges lists rows and runs the band kernels (loc/kernels,
/// dispatched scalar / AVX2 / AVX-512, bit-identical) over them:
///   1. the arc kernel computes, in vector lanes over the rows, m, s,
///      lo and hi with the exact expressions above, the four arc-end
///      bin coordinates from acos_approx(), their floors and the
///      margin test, and combines the two arcs into ranges with
///      selects.  A coordinate within the row's margin of an integer —
///      where the polynomial's error could flip the floor — sends the
///      row to the exact computation (libm acos, ceil and floor), as
///      do the rows with s < 1e-12, whose band is azimuth-independent;
///   2. the fold kernel walks each range's runs in whole vector steps
///      with masked loads and stores.
/// The kernel keeps a coordinate only when every value within the
/// margin floors to the same integer, and the margin covers the
/// polynomial's error plus the rounding of the coordinate expression,
/// so every range equals the exact computation's
/// (tests/loc/arc_ranges_test.cpp holds every variant to the per-row
/// libm oracle on every row of 0.5/1/2/8 deg grids, including rings
/// built to put an arc end on a bin boundary).  The exact path is the
/// only second arc path; a row sent to it by the margin bumps the
/// `loc.incremental.arc_fallbacks` counter.
///
/// Ranges are inclusive *unwrapped* bin intervals: the first bin lies
/// in [-bins - 1, bins - 1], so a range is at most two contiguous runs
/// of the row, and the ranges of a row are duplicate-free mod bins.
/// The ranges and the kernels' lanes are per-thread scratch; an
/// ArcRanges holds only the listed rows' geometry.

#include <cstddef>
#include <span>
#include <vector>

#include "loc/kernels/band_kernels.hpp"
#include "loc/kernels/lanes.hpp"
#include "loc/sky_grid.hpp"

namespace adapt::loc {

/// acos(x), x clamped to [-1, 1], to within kAcosMarginRad / 4: the
/// arc kernel's polynomial (kernels/lanes.hpp) on one lane.
inline double acos_approx(double x) {
  return kernels::acos_approx_lanes<kernels::ScalarLanes>(x);
}

/// The rows of one grid a ring's band is folded into, and the band
/// update over them.  Storage is sized at construction; build() and
/// fold() allocate nothing once a thread's scratch has grown.
class ArcRanges {
 public:
  ArcRanges() = default;
  /// Room for `capacity` rows; none listed yet.
  explicit ArcRanges(std::size_t capacity);

  /// List `row` of `grid` (at most `capacity` rows in all, all of one
  /// grid).
  void add_row(const SkyGrid& grid, std::size_t row);
  void clear() { n_ = 0; }
  std::size_t size() const { return n_; }
  /// Grid row of listed entry `k`.
  std::size_t row(std::size_t k) const { return row_[k]; }

  /// Ranges of every listed row for the band |c.s - eta| <= w of
  /// `ring`, into out[0, size()), from `kernels` (by default the
  /// dispatched variant).  Returns the rows sent to the exact
  /// computation because a coordinate fell within the margin.
  std::size_t build(const RingBand& ring, double w, std::span<BinRanges> out,
                    const BandKernels& kernels = active_band_kernels()) const;

  /// The per-ring band update: the ranges of every listed row for the
  /// band |c.s - eta| <= sigma * d_eta, then the ring's excess
  /// max(0, 0.5 * (sigma^2 - r^2)) added to every pixel in them.
  /// `excess` is indexed by pixel of `grid`, the grid the rows were
  /// listed from.  Returns the candidate pixels tested.
  std::size_t fold(const RingBand& ring, double sigma, const SkyGrid& grid,
                   double* excess,
                   const BandKernels& kernels = active_band_kernels()) const;

 private:
  ArcRows rows() const;

  std::size_t n_ = 0;
  // Row geometry, one entry per listed row (ArcRows).
  std::vector<std::size_t> row_;
  std::vector<std::size_t> offset_;
  std::vector<double> bins_;
  std::vector<double> cos_;
  std::vector<double> sin_;
  std::vector<double> inv_bin_w_;
  std::vector<double> margin_;  ///< Arc-kernel margin [bins].
};

}  // namespace adapt::loc
