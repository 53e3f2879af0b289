#include "loc/arc_ranges.hpp"

#include <algorithm>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"

namespace adapt::loc {

namespace {

/// A row's ranges from its two arcs' unwrapped bin intervals: one full
/// row when they cover it, one merged range when they meet near
/// delta-phi = 0 or across pi, else both.
BinRanges combine(int bins, std::pair<long, long> rm,
                  std::pair<long, long> rp) {
  BinRanges out;
  const auto one = [&](std::pair<long, long> range) {
    out.n = 1;
    out.r[0] = range.second - range.first + 1 >= bins
                   ? std::pair<long, long>{0, bins - 1}
                   : range;
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
  out.r[0] = rm;
  out.r[1] = rp;
  return out;
}

/// The exact per-row computation: arc ends from libm acos, bins from
/// ceil and floor.  Stage 2 of ArcRanges::build() defers to it.
BinRanges exact_ranges(int bins, double m, double s, double phi0, double eta,
                       double w) {
  if (s < 1e-12) {
    // Band is azimuth-independent on this row (ring axis on the polar
    // axis, or the zenith row itself).
    BinRanges out;
    if (std::abs(m - eta) <= w + 1e-12) {
      out.n = 1;
      out.r[0] = {0, bins - 1};
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

/// floor(x) into `k`; false when x lies within `margin` of an integer,
/// where a value that close could floor differently.
bool floor_clear_of_margin(double x, double margin, long& k) {
  k = static_cast<long>(x);
  if (x < static_cast<double>(k)) --k;
  const double frac = x - static_cast<double>(k);
  return frac > margin && frac < 1.0 - margin;
}

}  // namespace

ArcRanges::ArcRanges(std::size_t capacity)
    : row_(capacity),
      bins_(capacity),
      cos_(capacity),
      sin_(capacity),
      inv_bin_w_(capacity),
      margin_(capacity),
      m_(capacity),
      s_(capacity),
      lo_(capacity),
      hi_(capacity),
      ends_{std::vector<double>(capacity), std::vector<double>(capacity),
            std::vector<double>(capacity), std::vector<double>(capacity)},
      ranges_(capacity) {}

void ArcRanges::add_row(const SkyGrid& grid, std::size_t row) {
  ADAPT_REQUIRE(n_ < row_.size(), "arc range rows exceed their capacity");
  const int bins = grid.az_bins(row);
  row_[n_] = row;
  bins_[n_] = bins;
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

std::size_t ArcRanges::build(double axis_z, double axis_xy, double phi0,
                             double eta, double w) {
  static core::telemetry::Counter& fallback_ctr =
      core::telemetry::counter("loc.incremental.arc_fallbacks");
  const std::size_t n = n_;
  const double* row_cos = cos_.data();
  const double* row_sin = sin_.data();
  const double* inv_bin_w = inv_bin_w_.data();
  double* m_out = m_.data();
  double* s_out = s_.data();
  double* lo_out = lo_.data();
  double* hi_out = hi_.data();
  double* e0 = ends_[0].data();
  double* e1 = ends_[1].data();
  double* e2 = ends_[2].data();
  double* e3 = ends_[3].data();

  // Stage 1: every row's lanes, with the exact m, s, lo and hi.
#pragma omp simd
  for (std::size_t k = 0; k < n; ++k) {
    const double m = axis_z * row_cos[k];
    const double s = axis_xy * row_sin[k];
    const double lo = (eta - w - m) / s;
    const double hi = (eta + w - m) / s;
    const double a_min = acos_approx(hi);
    const double a_max = acos_approx(lo);
    m_out[k] = m;
    s_out[k] = s;
    lo_out[k] = lo;
    hi_out[k] = hi;
    e0[k] = (phi0 + a_min) * inv_bin_w[k] - 0.5 - kArcSlackBins;
    e1[k] = (phi0 + a_max) * inv_bin_w[k] - 0.5 + kArcSlackBins;
    e2[k] = (phi0 - a_max) * inv_bin_w[k] - 0.5 - kArcSlackBins;
    e3[k] = (phi0 - a_min) * inv_bin_w[k] - 0.5 + kArcSlackBins;
  }

  // Stage 2: integer bins, or the exact computation near a boundary.
  std::size_t fallbacks = 0;
  for (std::size_t k = 0; k < n; ++k) {
    BinRanges& out = ranges_[k];
    if (s_out[k] < 1e-12) {
      out = exact_ranges(bins_[k], m_out[k], s_out[k], phi0, eta, w);
      continue;
    }
    if (lo_out[k] > 1.0 || hi_out[k] < -1.0) {
      out.n = 0;  // band misses the row
      continue;
    }
    const double margin = margin_[k];
    long f0 = 0;
    long f1 = 0;
    long f2 = 0;
    long f3 = 0;
    if (floor_clear_of_margin(e0[k], margin, f0) &&
        floor_clear_of_margin(e1[k], margin, f1) &&
        floor_clear_of_margin(e2[k], margin, f2) &&
        floor_clear_of_margin(e3[k], margin, f3)) {
      // ceil(e) - 1 == floor(e) for a non-integer e.
      out = combine(bins_[k], {f2, f3 + 1}, {f0, f1 + 1});
    } else {
      ++fallbacks;
      fallback_ctr.add();
      out = exact_ranges(bins_[k], m_out[k], s_out[k], phi0, eta, w);
    }
  }
  return fallbacks;
}

}  // namespace adapt::loc
