#include "loc/arc_ranges.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "loc/kernels/band_kernel_impl.hpp"

namespace adapt::loc {

namespace {

/// A row's ranges from its two arcs' unwrapped bin intervals: one full
/// row when they cover it, one merged range when they meet near
/// delta-phi = 0 or across pi, else both.
BinRanges combine(int bins, std::pair<long, long> rm,
                  std::pair<long, long> rp) {
  BinRanges out;
  const auto one = [&](std::pair<long, long> range) {
    if (range.second - range.first + 1 >= bins) range = {0, bins - 1};
    out.n = 1;
    out.first[0] = range.first;
    out.last[0] = range.second;
    return out;
  };
  const long len = (rp.second - rp.first + 1) + (rm.second - rm.first + 1);
  if (len >= bins) return one({0, bins - 1});
  // Arcs meet near delta-phi = 0 (band grazes its nearest approach).
  if (rm.second + 1 >= rp.first) return one({rm.first, rp.second});
  // Arcs meet across delta-phi = pi (band grazes its far point).
  if (rp.second + 1 >= rm.first + bins)
    return one({rp.first, rm.second + bins});
  out.n = 2;
  out.first[0] = rm.first;
  out.last[0] = rm.second;
  out.first[1] = rp.first;
  out.last[1] = rp.second;
  return out;
}

/// The exact per-row computation: arc ends from libm acos, bins from
/// ceil and floor.  The arc kernel defers to it.
BinRanges exact_ranges(int bins, double m, double s, double phi0, double eta,
                       double w) {
  if (s < 1e-12) {
    // Band is azimuth-independent on this row (ring axis on the polar
    // axis, or the zenith row itself).
    BinRanges out;
    if (std::abs(m - eta) <= w + 1e-12) {
      out.n = 1;
      out.first[0] = 0;
      out.last[0] = bins - 1;
    }
    return out;
  }
  const double lo = (eta - w - m) / s;
  const double hi = (eta + w - m) / s;
  if (lo > 1.0 || hi < -1.0) return {};  // band misses the row
  const double a_min = std::acos(std::clamp(hi, -1.0, 1.0));
  const double a_max = std::acos(std::clamp(lo, -1.0, 1.0));
  const double bin_w = core::kTwoPi / static_cast<double>(bins);
  const auto to_range = [&](double lo_phi, double hi_phi) {
    // Bin b centres at (b + 0.5) * bin_w: the centres inside the
    // slack-widened arc, plus one guard bin each side.
    const long b0 = static_cast<long>(std::ceil(lo_phi / bin_w - 0.5 -
                                                kArcSlackBins)) - 1;
    const long b1 = static_cast<long>(std::floor(hi_phi / bin_w - 0.5 +
                                                 kArcSlackBins)) + 1;
    return std::pair<long, long>{b0, b1};
  };
  return combine(bins, to_range(phi0 - a_max, phi0 - a_min),
                 to_range(phi0 + a_min, phi0 + a_max));
}

/// Per-thread scratch: the arc kernel's lanes, and the ranges between
/// the two kernels of fold().
double* scratch_lanes(std::size_t n) {
  thread_local std::vector<double> lanes;
  if (lanes.size() < kArcLanes * n) lanes.resize(kArcLanes * n);
  return lanes.data();
}

std::span<BinRanges> scratch_ranges(std::size_t n) {
  thread_local std::vector<BinRanges> ranges;
  if (ranges.size() < n) ranges.resize(n);
  return {ranges.data(), n};
}

}  // namespace

namespace kernels {

bool exact_row_ranges(const ArcRows& rows, std::size_t k,
                      const RingBand& ring, double w, BinRanges& out) {
  const double m = ring.axis.z * rows.cos[k];
  const double s = ring.axis_xy * rows.sin[k];
  out = exact_ranges(static_cast<int>(rows.bins[k]), m, s, ring.phi0,
                     ring.eta, w);
  return !(s < 1e-12);
}

}  // namespace kernels

ArcRanges::ArcRanges(std::size_t capacity)
    : row_(capacity),
      offset_(capacity),
      bins_(capacity),
      cos_(capacity),
      sin_(capacity),
      inv_bin_w_(capacity),
      margin_(capacity) {}

void ArcRanges::add_row(const SkyGrid& grid, std::size_t row) {
  ADAPT_REQUIRE(n_ < row_.size(), "arc range rows exceed their capacity");
  const int bins = grid.az_bins(row);
  row_[n_] = row;
  offset_[n_] = grid.row_offset(row);
  bins_[n_] = static_cast<double>(bins);
  cos_[n_] = grid.row_cos(row);
  sin_[n_] = grid.row_sin(row);
  inv_bin_w_[n_] = static_cast<double>(bins) / core::kTwoPi;
  // The polynomial's error scaled to bins, plus the rounding of the
  // coordinate expression: each of the two coordinates (approximate
  // and exact) rounds by a few ulps of its magnitude, at most ~bins.
  margin_[n_] = kAcosMarginRad * inv_bin_w_[n_] +
                1e-12 * (static_cast<double>(bins) + 1.0);
  ++n_;
}

ArcRows ArcRanges::rows() const {
  return ArcRows{n_,           offset_.data(), bins_.data(),
                 cos_.data(),  sin_.data(),    inv_bin_w_.data(),
                 margin_.data()};
}

std::size_t ArcRanges::build(const RingBand& ring, double w,
                             std::span<BinRanges> out,
                             const BandKernels& kernels) const {
  static core::telemetry::Counter& fallback_ctr =
      core::telemetry::counter("loc.incremental.arc_fallbacks");
  ADAPT_REQUIRE(out.size() >= n_, "arc range output shorter than the rows");
  const std::size_t fallbacks =
      kernels.arc_ranges(rows(), ring, w, scratch_lanes(n_), out.data());
  if (fallbacks > 0) fallback_ctr.add(fallbacks);
  return fallbacks;
}

std::size_t ArcRanges::fold(const RingBand& ring, double sigma,
                            const SkyGrid& grid, double* excess,
                            const BandKernels& kernels) const {
  const std::span<BinRanges> ranges = scratch_ranges(n_);
  build(ring, sigma * ring.d_eta, ranges, kernels);
  const CentreArrays centres = grid.centers();
  return kernels.fold_ranges(
      rows(), ranges.data(), ring, sigma * sigma,
      CentrePointers{centres.x.data(), centres.y.data(), centres.z.data()},
      excess);
}

}  // namespace adapt::loc
