#include "loc/arc_ranges.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/simd_dispatch.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"

namespace adapt::loc {
namespace {

/// Up to two inclusive unwrapped bin ranges, as the oracle writes them.
struct OracleRanges {
  std::array<std::pair<long, long>, 2> r;
  int n = 0;
};

/// The per-row arc placement ArcRanges replaced, kept verbatim as the
/// oracle: two libm acos, then ceil/floor of each arc end's bin
/// coordinate, per row.
OracleRanges oracle_ranges(int bins, double m, double s, double phi0,
                           double eta, double w) {
  OracleRanges out;
  const auto full = [&] {
    out.n = 1;
    out.r[0] = {0, bins - 1};
    return out;
  };
  if (s < 1e-12) {
    if (std::abs(m - eta) <= w + 1e-12) return full();
    return out;
  }
  const double lo = (eta - w - m) / s;
  const double hi = (eta + w - m) / s;
  if (lo > 1.0 || hi < -1.0) return out;
  const double a_min = std::acos(std::clamp(hi, -1.0, 1.0));
  const double a_max = std::acos(std::clamp(lo, -1.0, 1.0));
  const double bin_w = core::kTwoPi / static_cast<double>(bins);
  const auto to_range = [&](double lo_phi, double hi_phi) {
    const long b0 = static_cast<long>(std::ceil(lo_phi / bin_w - 0.5 -
                                                kArcSlackBins)) - 1;
    const long b1 = static_cast<long>(std::floor(hi_phi / bin_w - 0.5 +
                                                 kArcSlackBins)) + 1;
    return std::pair<long, long>{b0, b1};
  };
  const auto rp = to_range(phi0 + a_min, phi0 + a_max);
  const auto rm = to_range(phi0 - a_max, phi0 - a_min);
  const long len =
      (rp.second - rp.first + 1) + (rm.second - rm.first + 1);
  if (len >= bins) return full();
  if (rm.second + 1 >= rp.first) {
    const std::pair<long, long> merged{rm.first, rp.second};
    if (merged.second - merged.first + 1 >= bins) return full();
    out.n = 1;
    out.r[0] = merged;
    return out;
  }
  if (rp.second + 1 >= rm.first + bins) {
    const std::pair<long, long> merged{rp.first, rm.second + bins};
    if (merged.second - merged.first + 1 >= bins) return full();
    out.n = 1;
    out.r[0] = merged;
    return out;
  }
  out.n = 2;
  out.r[0] = rm;
  out.r[1] = rp;
  return out;
}

struct Band {
  core::Vec3 axis;
  double eta;
  double w;
};

/// Every row of `grid` listed, in order.
ArcRanges all_rows(const SkyGrid& grid) {
  ArcRanges arcs(static_cast<std::size_t>(grid.n_rows()));
  for (std::size_t row = 0; row < static_cast<std::size_t>(grid.n_rows());
       ++row)
    arcs.add_row(grid, row);
  return arcs;
}

/// Every band-kernel variant this host runs, scalar first.
std::vector<const BandKernels*> runnable_kernels() {
  std::vector<const BandKernels*> out;
  for (int i = 0; i < core::kIsaCount; ++i) {
    const auto isa = static_cast<core::Isa>(i);
    if (band_kernels_supported(isa)) out.push_back(&band_kernels(isa));
  }
  return out;
}

/// Builds `band`'s ranges with every runnable variant and compares
/// every row with the oracle; every variant must also send the same
/// rows to the exact computation.  Adds that count to `fallbacks`.
::testing::AssertionResult matches_oracle(const ArcRanges& arcs,
                                          const SkyGrid& grid,
                                          const Band& band,
                                          std::size_t& fallbacks) {
  RingBand ring;
  ring.axis = band.axis;
  ring.eta = band.eta;
  ring.d_eta = band.w / 3.0;
  ring.axis_xy = std::hypot(band.axis.x, band.axis.y);
  ring.phi0 = std::atan2(band.axis.y, band.axis.x);
  std::vector<BinRanges> out(arcs.size());
  std::size_t scalar_fallbacks = 0;
  for (const BandKernels* kernels : runnable_kernels()) {
    const std::size_t taken = arcs.build(ring, band.w, out, *kernels);
    if (kernels->isa == core::Isa::kScalar) scalar_fallbacks = taken;
    if (taken != scalar_fallbacks)
      return ::testing::AssertionFailure()
             << kernels->name << ": " << taken << " exact rows, scalar "
             << scalar_fallbacks;
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      const std::size_t row = arcs.row(k);
      const OracleRanges want = oracle_ranges(
          grid.az_bins(row), band.axis.z * grid.row_cos(row),
          ring.axis_xy * grid.row_sin(row), ring.phi0, band.eta, band.w);
      const BinRanges& got = out[k];
      // The fold wraps a range's first bin with at most two adds and
      // walks at most one row's worth (arc_ranges.hpp).
      const long bins = grid.az_bins(row);
      for (int j = 0; j < got.n; ++j) {
        const long b0 = got.first[j];
        const long b1 = got.last[j];
        if (b0 < -bins - 1 || b0 > bins - 1 || b1 < b0 || b1 - b0 + 1 > bins)
          return ::testing::AssertionFailure()
                 << kernels->name << " row " << row << ": range [" << b0
                 << ", " << b1 << "] outside the unwrapped bounds for "
                 << bins << " bins";
      }
      bool same = got.n == want.n;
      for (int j = 0; same && j < want.n; ++j)
        same = got.first[j] == want.r[static_cast<std::size_t>(j)].first &&
               got.last[j] == want.r[static_cast<std::size_t>(j)].second;
      if (!same) {
        auto failure = ::testing::AssertionFailure();
        failure << kernels->name << " row " << row << ": got " << got.n
                << " ranges";
        for (int j = 0; j < got.n; ++j)
          failure << " [" << got.first[j] << ", " << got.last[j] << "]";
        failure << ", oracle " << want.n;
        for (int j = 0; j < want.n; ++j)
          failure << " [" << want.r[static_cast<std::size_t>(j)].first
                  << ", " << want.r[static_cast<std::size_t>(j)].second
                  << "]";
        return failure;
      }
    }
  }
  fallbacks += scalar_fallbacks;
  return ::testing::AssertionSuccess();
}

constexpr double kSigma = 3.0;

TEST(ArcRanges, SeededRingsMatchTheOracleOnEveryRow) {
  // Source-consistent rings plus 25% background, as the serve path
  // sees them, at three widths, on every row of eight grids.
  std::size_t fallbacks = 0;
  std::size_t rows_checked = 0;
  for (const double res : {0.5, 1.0, 2.0, 8.0}) {
    for (const double max_polar : {90.0, 100.0}) {
      const SkyGrid grid(res, max_polar);
      ArcRanges arcs = all_rows(grid);
      core::Rng rng(0xa7c +
                    static_cast<std::uint64_t>(res * 10.0 + max_polar));
      const core::Vec3 source = core::from_spherical(
          core::deg_to_rad(rng.uniform(0.0, 80.0)),
          rng.uniform(-core::kPi, core::kPi));
      for (const double d_eta : {0.005, 0.05, 0.4}) {
        for (int i = 0; i < 400; ++i) {
          Band band;
          band.axis = rng.isotropic_direction();
          band.w = kSigma * d_eta;
          band.eta = rng.uniform() < 0.25
                         ? rng.uniform(-1.0, 1.0)
                         : std::clamp(band.axis.dot(source) +
                                          rng.normal(0.0, d_eta),
                                      -1.0, 1.0);
          ASSERT_TRUE(matches_oracle(arcs, grid, band, fallbacks))
              << "res " << res << " fov " << max_polar << " d_eta " << d_eta
              << " ring " << i;
          rows_checked += arcs.size();
        }
      }
    }
  }
  // A seeded arc end almost never lands within the margin of a bin
  // boundary: the fallback is for constructed rings, not a hot path.
  EXPECT_LE(fallbacks * 100000, rows_checked) << fallbacks << " fallbacks";
}

TEST(ArcRanges, PolesFullRowsAndListedSubsetsMatchTheOracle) {
  // Axes on and next to either pole (the s < 1e-12 rows), bands
  // covering whole rows, eta = +-1, and a list holding only some rows
  // in a scrambled order, as the refined fine rows are.
  const SkyGrid grid(1.0, 100.0);
  std::vector<Band> bands;
  for (const double tilt : {0.0, 1e-13, 1e-9, 1e-4}) {
    for (const bool north : {true, false}) {
      const core::Vec3 axis =
          core::from_spherical(north ? tilt : core::kPi - tilt, 1.1);
      for (const double eta : {-1.0, -0.5, 0.0, 0.3, 1.0})
        for (const double d_eta : {0.001, 0.05, 0.7})
          bands.push_back({axis, eta, kSigma * d_eta});
    }
  }
  for (const double polar : {0.2, 1.0, 1.6, 2.9}) {
    const core::Vec3 axis = core::from_spherical(polar, -2.0);
    for (const double eta : {-1.0, 1.0, 0.0})
      for (const double d_eta : {1e-4, 0.02, 0.6, 3.0})
        bands.push_back({axis, eta, kSigma * d_eta});
  }
  std::size_t fallbacks = 0;
  ArcRanges every = all_rows(grid);
  ArcRanges some(static_cast<std::size_t>(grid.n_rows()));
  for (const std::size_t row : {57u, 3u, 99u, 0u, 40u, 41u, 42u, 43u})
    some.add_row(grid, row);
  for (std::size_t i = 0; i < bands.size(); ++i) {
    ASSERT_TRUE(matches_oracle(every, grid, bands[i], fallbacks)) << i;
    ASSERT_TRUE(matches_oracle(some, grid, bands[i], fallbacks)) << i;
  }
  some.clear();
  EXPECT_EQ(some.size(), 0u);
}

TEST(ArcRanges, ArcEndsOnABinBoundaryTakeTheExactPath) {
  // Rings solved so that one arc end's bin coordinate lands on an
  // integer (then nudged a few ulps of eta either way): inside the
  // margin, so stage 2 must hand the row to the exact computation, and
  // the ranges must still be the oracle's.
  std::size_t fallbacks = 0;
  std::size_t built = 0;
  const bool was_enabled = core::telemetry::enabled();
  core::telemetry::set_enabled(true);
  const std::uint64_t counted_before =
      core::telemetry::counter("loc.incremental.arc_fallbacks").value();
  for (const double res : {0.5, 2.0, 8.0}) {
    const SkyGrid grid(res, 90.0);
    ArcRanges arcs = all_rows(grid);
    const auto n_rows = static_cast<std::size_t>(grid.n_rows());
    for (const std::size_t row : {n_rows / 4, n_rows / 2, n_rows - 1}) {
      const int bins = grid.az_bins(row);
      const double bin_w = core::kTwoPi / static_cast<double>(bins);
      for (const double phi0 : {0.3, -2.7}) {
        const core::Vec3 axis = core::from_spherical(0.8, phi0);
        const double axis_xy = std::hypot(axis.x, axis.y);
        const double m = axis.z * grid.row_cos(row);
        const double s = axis_xy * grid.row_sin(row);
        const double phi0_bits = std::atan2(axis.y, axis.x);
        for (const double d_eta : {0.004, 0.03}) {
          const double w = kSigma * d_eta;
          // Integer targets for each of the four arc-end coordinates.
          for (int end = 0; end < 4; ++end) {
            for (const long target : {2L, 5L, 9L}) {
              // end 0/3 place a_min, end 1/2 place a_max; ends 0/2 sit
              // at -slack, ends 1/3 at +slack; ends 0/1 at phi0 + a,
              // ends 2/3 at phi0 - a.
              const double slack =
                  (end == 0 || end == 2) ? -kArcSlackBins : kArcSlackBins;
              const double phi =
                  (static_cast<double>(target) + 0.5 - slack) * bin_w;
              const double a = (end < 2) ? phi - phi0_bits
                                         : phi0_bits - phi;
              if (!(a > 0.0 && a < core::kPi)) continue;
              const bool a_min_end = end == 0 || end == 3;
              const double eta0 = a_min_end ? std::cos(a) * s + m - w
                                            : std::cos(a) * s + m + w;
              double eta = eta0;
              for (int step = 0; step < 4; ++step)
                eta = std::nextafter(eta, -2.0);
              for (int step = 0; step < 9; ++step) {
                ASSERT_TRUE(matches_oracle(arcs, grid, Band{axis, eta, w},
                                           fallbacks))
                    << "res " << res << " row " << row << " end " << end
                    << " target " << target << " step " << step;
                ++built;
                eta = std::nextafter(eta, 2.0);
              }
            }
          }
        }
      }
    }
  }
  const std::uint64_t counted =
      core::telemetry::counter("loc.incremental.arc_fallbacks").value() -
      counted_before;
  core::telemetry::set_enabled(was_enabled);
  EXPECT_GT(fallbacks, built / 2) << fallbacks << " of " << built;
  // Every runnable variant took the same exact rows, each one counted.
  EXPECT_EQ(counted, fallbacks * runnable_kernels().size());
}

TEST(ArcRanges, AcosErrorIsAQuarterOfTheMargin) {
  // >= 2^21 inputs: a uniform sweep of [-1, 1], cosines of a uniform
  // angle sweep (dense near +-1), and the binade edges 1 - 2^-k.
  std::vector<double> xs;
  constexpr int kSteps = 1 << 21;
  for (int i = 0; i <= kSteps; ++i)
    xs.push_back(-1.0 + 2.0 * static_cast<double>(i) / kSteps);
  for (int i = 0; i <= kSteps / 4; ++i)
    xs.push_back(std::cos(core::kPi * static_cast<double>(i) / (kSteps / 4)));
  for (int k = 1; k <= 60; ++k) {
    const double e = std::ldexp(1.0, -k);
    for (const double x : {1.0 - e, -(1.0 - e), e, -e}) {
      xs.push_back(x);
      xs.push_back(std::nextafter(x, 0.0));
      xs.push_back(std::nextafter(x, 2.0 * x));
    }
  }
  for (const double x : {-1.0, 1.0, 0.0, -0.0, 0.5, -0.5})
    xs.push_back(x);
  ASSERT_GE(xs.size(), std::size_t{1} << 21);
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : xs) {
    const double err = std::abs(acos_approx(x) - std::acos(x));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  // 1.5e-13 rad when recorded, 66x inside the bound.
  EXPECT_LE(worst, kAcosMarginRad / 4.0) << "at x = " << worst_x;
  // Exact where the row geometry pins an arc: the band's cap (a = 0),
  // its far point (pi), and the clamp beyond +-1.
  EXPECT_EQ(acos_approx(1.0), 0.0);
  EXPECT_EQ(acos_approx(-1.0), core::kPi);
  EXPECT_EQ(acos_approx(1.5), 0.0);
  EXPECT_EQ(acos_approx(-7.0), core::kPi);
}

TEST(ArcRanges, CapacityIsEnforced) {
  const SkyGrid grid(8.0, 90.0);
  ArcRanges arcs(2);
  arcs.add_row(grid, 0);
  arcs.add_row(grid, 1);
  EXPECT_THROW(arcs.add_row(grid, 2), std::invalid_argument);
}

}  // namespace
}  // namespace adapt::loc
