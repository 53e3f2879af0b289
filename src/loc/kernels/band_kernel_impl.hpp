#pragma once

/// \file band_kernel_impl.hpp
/// The band kernels' one body, instantiated by scalar.cpp, avx2.cpp
/// and avx512.cpp over the lane types they define (the interface is in
/// lanes.hpp).  Internal to
/// src/loc/kernels/: each TU is built with its own -m flags, so
/// everything here has internal linkage (an anonymous namespace) and
/// touches no out-of-line library code — a shared inline function
/// could be emitted once with AVX-512 instructions and picked by the
/// linker for the scalar path.  BinRanges are written member by
/// member for the same reason.

#include <cstddef>

#include "loc/kernels/band_kernels.hpp"
#include "loc/kernels/lanes.hpp"

namespace adapt::loc::kernels {

/// The exact computation of one row's ranges (libm acos, ceil and
/// floor; arc_ranges.cpp, built with baseline flags).  Returns true
/// when the row went there because an arc end fell within the margin,
/// false for an azimuth-independent row (s < 1e-12).
bool exact_row_ranges(const ArcRows& rows, std::size_t k,
                      const RingBand& ring, double w, BinRanges& out);

std::size_t arc_ranges_scalar(const ArcRows&, const RingBand&, double,
                              double*, BinRanges*);
std::size_t fold_ranges_scalar(const ArcRows&, const BinRanges*,
                               const RingBand&, double,
                               const CentrePointers&, double*);
std::size_t arc_ranges_avx2(const ArcRows&, const RingBand&, double,
                            double*, BinRanges*);
std::size_t fold_ranges_avx2(const ArcRows&, const BinRanges*,
                             const RingBand&, double, const CentrePointers&,
                             double*);
std::size_t arc_ranges_avx512(const ArcRows&, const RingBand&, double,
                              double*, BinRanges*);
std::size_t fold_ranges_avx512(const ArcRows&, const BinRanges*,
                               const RingBand&, double,
                               const CentrePointers&, double*);

namespace {

/// Ranges of every row, in two passes.
///
/// The lane pass computes, kLanes rows at a time and with the
/// expressions of the exact computation: m, s, lo, hi, the four
/// arc-end bin coordinates from acos_approx_lanes(), and their floors.
/// A coordinate whose fraction lies within the row's margin of an
/// integer could floor differently under libm acos, so its row is left
/// unsettled, as are the rows with s < 1e-12, whose band is
/// azimuth-independent.  Every other row is settled in lanes: no range
/// when the band misses it; else its two arcs (each the bins whose
/// centres lie in the slack-widened arc, plus a guard bin per side),
/// merged into one range when they meet near delta-phi = 0 or across
/// pi, and the whole row when either covers it.  All of that is
/// integer arithmetic on doubles below 2^53, so it is exact.  The
/// lanes go to `lanes` (per-thread scratch, kArcLanes arrays of
/// rows.n).
///
/// The row pass copies each settled row's ranges out and sends the
/// others to the exact computation: the only branch per row, rarely
/// taken.
template <class L>
std::size_t arc_ranges(const ArcRows& rows, const RingBand& ring, double w,
                       double* lanes, BinRanges* out) {
  using V = typename L::V;
  using M = typename L::M;
  const double axis_z = ring.axis.z;
  const double axis_xy = ring.axis_xy;
  const double phi0 = ring.phi0;
  const double eta = ring.eta;
  const std::size_t n = rows.n;
  double* const settled_out = lanes;
  double* const count_out = lanes + n;
  double* const first0_out = lanes + 2 * n;
  double* const last0_out = lanes + 3 * n;
  double* const first1_out = lanes + 4 * n;
  double* const last1_out = lanes + 5 * n;
  for (std::size_t k = 0; k < n; k += L::kLanes) {
    const M live = L::first_lanes(n - k);
    const V bins = L::load(rows.bins + k, live);
    const V inv_bin_w = L::load(rows.inv_bin_w + k, live);
    const V margin = L::load(rows.margin + k, live);
    const V m = axis_z * L::load(rows.cos + k, live);
    const V s = axis_xy * L::load(rows.sin + k, live);
    const V lo = (eta - w - m) / s;
    const V hi = (eta + w - m) / s;
    const V a_min = acos_approx_lanes<L>(hi);
    const V a_max = acos_approx_lanes<L>(lo);
    const V e0 = (phi0 + a_min) * inv_bin_w - 0.5 - kArcSlackBins;
    const V e1 = (phi0 + a_max) * inv_bin_w - 0.5 + kArcSlackBins;
    const V e2 = (phi0 - a_max) * inv_bin_w - 0.5 - kArcSlackBins;
    const V e3 = (phi0 - a_min) * inv_bin_w - 0.5 + kArcSlackBins;
    const V f0 = L::floor(e0);
    const V f1 = L::floor(e1);
    const V f2 = L::floor(e2);
    const V f3 = L::floor(e3);
    const V upper = 1.0 - margin;
    const auto clear_of_margin = [&](V e, V f) {
      const V frac = e - f;
      return L::both(L::gt(frac, margin), L::lt(frac, upper));
    };
    const M clear = L::both(
        L::both(clear_of_margin(e0, f0), clear_of_margin(e1, f1)),
        L::both(clear_of_margin(e2, f2), clear_of_margin(e3, f3)));
    const V one = L::set1(1.0);
    const V zero = L::set1(0.0);
    const M miss = L::either(L::gt(lo, one), L::lt(hi, L::set1(-1.0)));
    const M settled =
        L::but_not(L::either(miss, clear), L::lt(s, L::set1(1e-12)));

    // ceil(e) - 1 == floor(e) for a non-integer e: the arc at phi0 - a
    // is [f2, f3 + 1], the one at phi0 + a is [f0, f1 + 1].
    const V minus_last = f3 + 1.0;
    const V plus_last = f1 + 1.0;
    const V length = (plus_last - f0 + 1.0) + (minus_last - f2 + 1.0);
    const M near = L::ge(minus_last + 1.0, f0);
    const M far = L::ge(plus_last + 1.0, f2 + bins);
    const M single = L::either(near, far);
    const V one_first = L::select(near, f2, f0);
    const V one_last = L::select(near, plus_last, minus_last + bins);
    const M whole = L::either(
        L::ge(length, bins),
        L::both(single, L::ge(one_last - one_first + 1.0, bins)));
    L::store(settled_out + k, L::select(settled, one, zero), live);
    L::store(count_out + k,
             L::select(miss, zero,
                       L::select(L::either(whole, single), one, one + one)),
             live);
    L::store(first0_out + k,
             L::select(miss, zero,
                       L::select(whole, zero,
                                 L::select(single, one_first, f2))),
             live);
    L::store(last0_out + k,
             L::select(miss, zero,
                       L::select(whole, bins - 1.0,
                                 L::select(single, one_last, minus_last))),
             live);
    L::store(first1_out + k, L::select(miss, zero, f0), live);
    L::store(last1_out + k, L::select(miss, zero, plus_last), live);
  }

  std::size_t fallbacks = 0;
  for (std::size_t k = 0; k < n; ++k) {
    BinRanges& o = out[k];
    if (settled_out[k] == 0.0) {
      if (exact_row_ranges(rows, k, ring, w, o)) ++fallbacks;
      continue;
    }
    o.n = static_cast<int>(count_out[k]);
    o.first[0] = static_cast<long>(first0_out[k]);
    o.last[0] = static_cast<long>(last0_out[k]);
    o.first[1] = static_cast<long>(first1_out[k]);
    o.last[1] = static_cast<long>(last1_out[k]);
  }
  return fallbacks;
}

/// Folds the ring into pixels [0, n) of one run, kLanes at a time;
/// lanes past the run are masked off, never loaded or stored.  Only
/// residuals strictly inside the cap add excess: max(0, 0.5 * (cap^2 -
/// r^2)) adds +0.0 outside it, which leaves a sum's bits alone (sums
/// start at +0.0 and only grow).
template <class L>
void fold_run(typename L::V ax, typename L::V ay, typename L::V az,
              double eta, double d_eta, double cap2, const double* x,
              const double* y, const double* z, double* excess, long n) {
  using V = typename L::V;
  using M = typename L::M;
  for (long j = 0; j < n; j += static_cast<long>(L::kLanes)) {
    const M live = L::first_lanes(static_cast<std::size_t>(n - j));
    const V r = (ax * L::load(x + j, live) + ay * L::load(y + j, live) +
                 az * L::load(z + j, live) - eta) /
                d_eta;
    L::store(excess + j,
             L::load(excess + j, live) + L::max0(0.5 * (cap2 - r * r)),
             live);
  }
}

/// Each range is at most two runs of its row: from its first bin,
/// wrapped into [0, bins), to the row's end, and from bin 0 on.  A
/// range's first bin lies in [-bins - 1, bins - 1] (arc_ranges.hpp), so
/// two conditional adds wrap it.
template <class L>
std::size_t fold_ranges(const ArcRows& rows, const BinRanges* ranges,
                        const RingBand& ring, double cap2,
                        const CentrePointers& centres, double* excess) {
  using V = typename L::V;
  const V ax = L::set1(ring.axis.x);
  const V ay = L::set1(ring.axis.y);
  const V az = L::set1(ring.axis.z);
  std::size_t touched = 0;
  for (std::size_t k = 0; k < rows.n; ++k) {
    const BinRanges& range = ranges[k];
    const std::size_t off = rows.offset[k];
    const auto bins = static_cast<long>(rows.bins[k]);
    for (int j = 0; j < range.n; ++j) {
      long first = range.first[j];
      first = first < 0 ? first + bins : first;
      first = first < 0 ? first + bins : first;
      const long count = range.last[j] - range.first[j] + 1;
      const long head = count < bins - first ? count : bins - first;
      const std::size_t at = off + static_cast<std::size_t>(first);
      fold_run<L>(ax, ay, az, ring.eta, ring.d_eta, cap2, centres.x + at,
                  centres.y + at, centres.z + at, excess + at, head);
      fold_run<L>(ax, ay, az, ring.eta, ring.d_eta, cap2, centres.x + off,
                  centres.y + off, centres.z + off, excess + off,
                  count - head);
      touched += static_cast<std::size_t>(count);
    }
  }
  return touched;
}

}  // namespace
}  // namespace adapt::loc::kernels
