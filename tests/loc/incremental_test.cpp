#include "loc/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "full_scan_oracle.hpp"
#include "loc/skymap.hpp"

namespace adapt::loc {
namespace {

std::vector<recon::ComptonRing> rings_for(const core::Vec3& s, int n,
                                          double d_eta, core::Rng& rng,
                                          int n_background = 0) {
  std::vector<recon::ComptonRing> rings;
  for (int i = 0; i < n; ++i) {
    recon::ComptonRing r;
    r.axis = rng.isotropic_direction();
    r.eta = r.axis.dot(s) + rng.normal(0.0, d_eta);
    if (r.eta < -1.0 || r.eta > 1.0) {
      --i;
      continue;
    }
    r.d_eta = d_eta;
    rings.push_back(r);
  }
  for (int i = 0; i < n_background; ++i) {
    recon::ComptonRing r;
    r.axis = rng.isotropic_direction();
    r.eta = rng.uniform(-1.0, 1.0);
    r.d_eta = d_eta;
    rings.push_back(r);
  }
  return rings;
}

/// Max relative per-pixel probability difference between two maps on
/// the same grid.
double max_rel_diff(const SkyMap& a, const SkyMap& b) {
  EXPECT_EQ(a.n_pixels(), b.n_pixels());
  double peak = 0.0;
  for (std::size_t i = 0; i < a.n_pixels(); ++i) {
    const core::Vec3 dir = a.grid().pixel_center(i);
    peak = std::max(peak, b.probability_at(dir));
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.n_pixels(); ++i) {
    const core::Vec3 dir = a.grid().pixel_center(i);
    worst = std::max(
        worst, std::abs(a.probability_at(dir) - b.probability_at(dir)));
  }
  return worst / peak;
}

/// Test-only reference fold: every pixel of every row gets the exact
/// per-pixel residual test, with the batch path's residual
/// (c.s - eta) / d_eta against the grid's pixel centres.  `missed`
/// flags the rows the fold's row-level test skips whole (band clear of
/// the row's cosine range, or |m - eta| > w + 1e-12 on an
/// azimuth-independent row).
struct FullScan {
  std::vector<std::vector<double>> rows;
  std::vector<bool> missed;
};

FullScan full_scan_excess(const SkyGrid& grid,
                          const recon::ComptonRing& ring, double sigma) {
  const double cap2 = sigma * sigma;
  const double w = sigma * ring.d_eta;
  const double axis_xy = std::hypot(ring.axis.x, ring.axis.y);
  const auto n_rows = static_cast<std::size_t>(grid.n_rows());
  FullScan scan{std::vector<std::vector<double>>(n_rows),
                std::vector<bool>(n_rows)};
  for (std::size_t row = 0; row < n_rows; ++row) {
    const int bins = grid.az_bins(row);
    const double m = ring.axis.z * grid.row_cos(row);
    const double s = axis_xy * grid.row_sin(row);
    scan.missed[row] = s < 1e-12
                           ? !(std::abs(m - ring.eta) <= w + 1e-12)
                           : (ring.eta - w - m) / s > 1.0 ||
                                 (ring.eta + w - m) / s < -1.0;
    scan.rows[row].assign(static_cast<std::size_t>(bins), 0.0);
    for (int az = 0; az < bins; ++az) {
      const core::Vec3 centre =
          grid.pixel_center(row, static_cast<std::size_t>(az));
      const double r = (ring.axis.dot(centre) - ring.eta) / ring.d_eta;
      const double r2 = r * r;
      if (r2 < cap2)
        scan.rows[row][static_cast<std::size_t>(az)] += 0.5 * (cap2 - r2);
    }
  }
  return scan;
}

recon::ComptonRing make_ring(const core::Vec3& axis, double eta,
                             double d_eta) {
  recon::ComptonRing r;
  r.axis = axis;
  r.eta = eta;
  r.d_eta = d_eta;
  return r;
}

/// Rings aimed at the band enumeration's edge cases on `grid`.
std::vector<recon::ComptonRing> adversarial_rings(const SkyGrid& grid,
                                                  double sigma) {
  std::vector<recon::ComptonRing> rings;
  // Axis at, or within 1e-12 .. 1e-3 rad of, either pole.
  for (const bool north : {true, false}) {
    for (const double tilt : {0.0, 1e-12, 1e-9, 1e-6, 1e-3}) {
      const core::Vec3 axis =
          core::from_spherical(north ? tilt : core::kPi - tilt, 0.4);
      for (const double eta : {-1.0, -0.3, 0.0, 0.7, 1.0})
        rings.push_back(make_ring(axis, eta, 0.02));
    }
  }
  // eta = +-1 (the band is a cap around +-axis), widths 1e-4 .. 2.
  for (const double polar : {0.3, 1.2, 2.0}) {
    const core::Vec3 axis = core::from_spherical(polar, -2.5);
    for (const double eta : {-1.0, 1.0})
      for (const double d_eta : {1e-4, 0.01, 0.3, 2.0})
        rings.push_back(make_ring(axis, eta, d_eta));
  }
  // Per-row constructions on the first two, middle and last two rows.
  const auto n_rows = static_cast<std::size_t>(grid.n_rows());
  for (const std::size_t row :
       {std::size_t{0}, std::size_t{1}, n_rows / 2, n_rows - 2, n_rows - 1}) {
    if (row >= n_rows) continue;
    const double bin_w =
        core::kTwoPi / static_cast<double>(grid.az_bins(row));
    // A generic azimuth and one exactly on a pixel centre of the row
    // (so a pixel sits at delta-phi = 0 and, for even bins, at pi).
    for (const double az : {0.77, 3.5 * bin_w}) {
      const core::Vec3 axis = core::from_spherical(0.9, az);
      const double m = axis.z * grid.row_cos(row);
      const double s = std::hypot(axis.x, axis.y) * grid.row_sin(row);
      for (const double d_eta : {0.002, 0.03}) {
        const double w = sigma * d_eta;
        // Band edge tangent to the row at delta-phi = 0 and at pi, from
        // either side.
        for (const double eta : {m + s + w, m + s - w, m - s - w, m - s + w})
          rings.push_back(make_ring(axis, eta, d_eta));
        // Arcs merging across delta-phi = 0 and across pi.
        rings.push_back(make_ring(axis, m + s - 0.4 * w, d_eta));
        rings.push_back(make_ring(axis, m - s + 0.4 * w, d_eta));
      }
      // A band covering the whole row.
      rings.push_back(make_ring(axis, m, 1.5 * s / sigma + 1e-3));
      // s just above the 1e-12 early-out, band edge across the row.
      const double tilt = std::asin(1.5e-12 / grid.row_sin(row));
      const core::Vec3 near_pole = core::from_spherical(tilt, az);
      const double m0 = near_pole.z * grid.row_cos(row);
      const double s0 =
          std::hypot(near_pole.x, near_pole.y) * grid.row_sin(row);
      for (const double frac : {-0.9, 0.0, 0.5})
        rings.push_back(make_ring(near_pole, m0 + 0.06 + frac * s0, 0.02));
    }
  }
  return rings;
}

/// Every row the band reaches must hold the full scan's sums bit for
/// bit.  A row the row-level test skips must get nothing, and the scan
/// may only disagree there by a rounding-level tie: a pixel centre
/// exactly at a band's tangent point, whose residual lands a few ulps
/// inside the cap while the row test rounds the other way.
::testing::AssertionResult rows_equal(const IncrementalLocalizer& inc,
                                      const FullScan& want) {
  for (std::size_t row = 0; row < want.rows.size(); ++row) {
    const std::span<const double> got = inc.fine_row_excess(row);
    if (got.size() != want.rows[row].size())
      return ::testing::AssertionFailure() << "row " << row << " size";
    for (std::size_t az = 0; az < got.size(); ++az) {
      const double ref = want.rows[row][az];
      const bool ok =
          want.missed[row]
              ? got[az] == 0.0 && ref < 1e-12
              : std::bit_cast<std::uint64_t>(got[az]) ==
                    std::bit_cast<std::uint64_t>(ref);
      if (!ok)
        return ::testing::AssertionFailure()
               << "row " << row << (want.missed[row] ? " (skipped)" : "")
               << " az " << az << ": " << got[az] << " vs " << ref;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IncrementalLocalizer, BandFoldEqualsFullRowScanBitForBit) {
  for (const double res : {0.5, 1.0, 2.0, 8.0}) {
    for (const double max_polar : {90.0, 100.0}) {
      IncrementalConfig ic;
      ic.resolution_deg = res;
      ic.max_polar_deg = max_polar;
      ic.coarse_factor = 1;
      ic.refine_mass_fraction = 1.0;
      const SkyGrid grid(res, max_polar);
      const auto rings = adversarial_rings(grid, ic.truncation_sigma);
      const std::string where =
          "res " + std::to_string(res) + " fov " + std::to_string(max_polar);

      // Every row refined before any ring: later rings fold live.
      IncrementalLocalizer refined(ic);
      (void)refined.degenerate();
      IncrementalLocalizer live = refined;
      IncrementalLocalizer replay(ic);
      FullScan total = full_scan_excess(grid, rings.front(), 1.0);
      for (auto& row : total.rows) std::fill(row.begin(), row.end(), 0.0);
      std::fill(total.missed.begin(), total.missed.end(), false);
      for (std::size_t k = 0; k < rings.size(); ++k) {
        const FullScan want =
            full_scan_excess(grid, rings[k], ic.truncation_sigma);
        IncrementalLocalizer one = refined;
        one.add_ring(rings[k]);
        ASSERT_TRUE(rows_equal(one, want)) << where << " ring " << k;
        live.add_ring(rings[k]);
        replay.add_ring(rings[k]);
        for (std::size_t row = 0; row < want.rows.size(); ++row) {
          if (want.missed[row]) continue;
          for (std::size_t az = 0; az < want.rows[row].size(); ++az)
            total.rows[row][az] += want.rows[row][az];
        }
      }
      // The replay log refines every row from scratch, in arrival
      // order: the same sums as the live fold and the summed scans.
      (void)replay.degenerate();
      EXPECT_TRUE(rows_equal(live, total)) << where << " live sums";
      EXPECT_TRUE(rows_equal(replay, total)) << where << " replayed sums";
    }
  }
}

TEST(IncrementalLocalizer, ClosedFormDriftIsBounded) {
  // The fold used to evaluate each pixel's ring dot product in the
  // per-row closed form m + s * cos(phi_c - phi0); it now takes the
  // batch dot product against the pixel-centre table.  Over every
  // pixel of every row the two differ by at most 1e-14.  No seeded
  // ring puts a pixel on the other side of the cap.  The adversarial
  // set builds bands tangent to a row exactly at a pixel centre, whose
  // r^2 equals cap^2 up to rounding; only such a tie may change sides,
  // and the excess it carries is rounding-sized either way.
  core::Rng rng(2027);
  const auto seeded = rings_for(core::from_spherical(0.6, 2.2), 60, 0.05,
                                rng, 20);
  for (const double res : {0.5, 1.0, 2.0, 8.0}) {
    for (const double max_polar : {90.0, 100.0}) {
      const SkyGrid grid(res, max_polar);
      const double sigma = IncrementalConfig{}.truncation_sigma;
      const double cap2 = sigma * sigma;
      auto rings = adversarial_rings(grid, sigma);
      const std::size_t n_adversarial = rings.size();
      rings.insert(rings.end(), seeded.begin(), seeded.end());
      double worst = 0.0;
      for (std::size_t k = 0; k < rings.size(); ++k) {
        const recon::ComptonRing& ring = rings[k];
        const double axis_xy = std::hypot(ring.axis.x, ring.axis.y);
        const double phi0 = std::atan2(ring.axis.y, ring.axis.x);
        for (std::size_t row = 0;
             row < static_cast<std::size_t>(grid.n_rows()); ++row) {
          const double m = ring.axis.z * grid.row_cos(row);
          const double s = axis_xy * grid.row_sin(row);
          const double bin_w =
              core::kTwoPi / static_cast<double>(grid.az_bins(row));
          const CentreArrays centres = grid.row_centers(row);
          for (std::size_t az = 0; az < centres.size(); ++az) {
            const double phi_c = (static_cast<double>(az) + 0.5) * bin_w;
            const double closed = m + s * std::cos(phi_c - phi0);
            const double table = ring.axis.dot(centres[az]);
            worst = std::max(worst, std::abs(closed - table));
            const double r_closed = (closed - ring.eta) / ring.d_eta;
            const double r_table = (table - ring.eta) / ring.d_eta;
            const double r2_closed = r_closed * r_closed;
            const double r2_table = r_table * r_table;
            if ((r2_closed < cap2) == (r2_table < cap2)) continue;
            ASSERT_LT(k, n_adversarial)
                << "seeded ring crossed the cap: res " << res << " fov "
                << max_polar << " ring " << k << " row " << row << " az "
                << az;
            ASSERT_LT(std::max(std::abs(r2_closed - cap2),
                               std::abs(r2_table - cap2)),
                      1e-12 * cap2)
                << "res " << res << " fov " << max_polar << " ring " << k
                << " row " << row << " az " << az;
          }
        }
      }
      EXPECT_LE(worst, 1e-14) << "res " << res << " fov " << max_polar;
    }
  }
}

TEST(IncrementalLocalizer, SnapshotMatchesBatchAtCheckpoints) {
  core::Rng rng(11);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(35.0),
                                            core::deg_to_rad(120.0));
  const auto rings = rings_for(s, 300, 0.05, rng, 60);

  IncrementalConfig ic;
  ic.resolution_deg = 2.0;
  IncrementalLocalizer inc(ic);
  SkyMapConfig bc;
  bc.resolution_deg = 2.0;

  // The documented contract (incremental.hpp): snapshot() agrees with
  // the full per-pixel scan up to floating-point noise — the per-pixel
  // residuals are the same bits but the sums associate differently,
  // so bit identity is not expected, but 1e-9 relative is orders below
  // any physical signal.
  std::size_t fed = 0;
  for (const std::size_t checkpoint : {std::size_t{25}, std::size_t{100},
                                       std::size_t{300}}) {
    while (fed < checkpoint) inc.add_ring(rings[fed++]);
    SkyMap from_inc = inc.snapshot();
    const std::span<const recon::ComptonRing> prefix(rings.data(),
                                                     checkpoint);
    const SkyMap from_batch = full_scan_skymap(prefix, bc);
    EXPECT_LT(max_rel_diff(from_inc, from_batch), 1e-9)
        << "checkpoint " << checkpoint;
    EXPECT_LT(core::rad_to_deg(core::angle_between(from_inc.peak(),
                                                   from_batch.peak())),
              1e-9)
        << "checkpoint " << checkpoint;
    EXPECT_NEAR(from_inc.credible_region_area_deg2(0.68),
                from_batch.credible_region_area_deg2(0.68),
                1e-6 * from_batch.credible_region_area_deg2(0.68) +
                    from_batch.grid().row_pixel_solid_angle_deg2(0))
        << "checkpoint " << checkpoint;
  }
}

TEST(IncrementalLocalizer, RefineAllQueriesMatchBatch) {
  core::Rng rng(12);
  const core::Vec3 s = core::from_spherical(0.5, 1.2);
  const auto rings = rings_for(s, 150, 0.05, rng);

  IncrementalConfig ic;
  ic.resolution_deg = 2.0;
  ic.refine_mass_fraction = 1.0;
  IncrementalLocalizer inc(ic);
  inc.add_rings(rings);

  SkyMapConfig bc;
  bc.resolution_deg = 2.0;
  const SkyMap batch = full_scan_skymap(rings, bc);

  EXPECT_LT(core::rad_to_deg(core::angle_between(inc.peak(), batch.peak())),
            1e-9);
  EXPECT_NEAR(inc.credible_radius_deg(0.68), batch.credible_radius_deg(0.68),
              1e-6 * batch.credible_radius_deg(0.68) + 1e-9);
  EXPECT_NEAR(inc.probability_at(s), batch.probability_at(s),
              1e-9 * batch.probability_at(s));
}

TEST(IncrementalLocalizer, AdaptiveQueriesMatchBatchWithinCoarseScale) {
  core::Rng rng(13);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(40.0), 2.0);
  const auto rings = rings_for(s, 200, 0.05, rng, 40);

  IncrementalConfig ic;  // defaults: coarse_factor 4, mass 0.999
  IncrementalLocalizer inc(ic);
  inc.add_rings(rings);

  SkyMapConfig bc;
  const SkyMap batch = full_scan_skymap(rings, bc);

  // Adaptive mode approximates only the far tail (< 0.1% of mass) at
  // coarse resolution, so peak and credible radius agree with batch
  // within the fine pixel scale.
  EXPECT_LT(core::rad_to_deg(core::angle_between(inc.peak(), batch.peak())),
            ic.resolution_deg);
  const double batch_radius = batch.credible_radius_deg(0.68);
  EXPECT_NEAR(inc.credible_radius_deg(0.68), batch_radius,
              0.05 * batch_radius + ic.resolution_deg);
}

TEST(IncrementalLocalizer, DeterministicAcrossFeedingPatterns) {
  core::Rng rng(14);
  const core::Vec3 s = core::from_spherical(0.3, -1.0);
  const auto rings = rings_for(s, 120, 0.06, rng, 30);

  // Refining every row (refine_mass_fraction 1.0) removes the one
  // source of history dependence (which rows got refined when);
  // replay-based refinement then guarantees the final state does not
  // depend on feeding pattern or query timing.
  IncrementalConfig ic;
  ic.refine_mass_fraction = 1.0;
  IncrementalLocalizer one_at_a_time(ic);
  IncrementalLocalizer batched(ic);
  for (std::size_t i = 0; i < rings.size(); ++i) {
    one_at_a_time.add_ring(rings[i]);
    if (i % 40 == 0) (void)one_at_a_time.credible_radius_deg(0.68);
  }
  batched.add_rings(rings);

  // Bit identity, not tolerance: same adds in the same order.
  EXPECT_EQ(one_at_a_time.credible_radius_deg(0.68),
            batched.credible_radius_deg(0.68));
  EXPECT_EQ(one_at_a_time.probability_at(s), batched.probability_at(s));
  const core::Vec3 pa = one_at_a_time.peak();
  const core::Vec3 pb = batched.peak();
  EXPECT_EQ(pa.x, pb.x);
  EXPECT_EQ(pa.y, pb.y);
  EXPECT_EQ(pa.z, pb.z);
}

TEST(IncrementalLocalizer, AdaptiveQueryTimingShiftsOnlyTheTail) {
  core::Rng rng(19);
  const core::Vec3 s = core::from_spherical(0.3, -1.0);
  const auto rings = rings_for(s, 120, 0.06, rng, 30);

  // Adaptive mode refines rows based on the posterior *at query time*,
  // so interleaved queries can refine a superset of the rows a single
  // final query would.  The refined core's excess sums stay
  // bit-identical; what moves is the coarse-tail share of the
  // normalization, a few percent at worst (see incremental.hpp).
  IncrementalLocalizer interleaved;
  IncrementalLocalizer final_only;
  for (std::size_t i = 0; i < rings.size(); ++i) {
    interleaved.add_ring(rings[i]);
    if (i % 40 == 0) (void)interleaved.credible_radius_deg(0.68);
  }
  final_only.add_rings(rings);

  EXPECT_LT(core::rad_to_deg(core::angle_between(interleaved.peak(),
                                                 final_only.peak())),
            1e-9);
  EXPECT_NEAR(interleaved.credible_radius_deg(0.68),
              final_only.credible_radius_deg(0.68),
              0.02 * final_only.credible_radius_deg(0.68));
  EXPECT_NEAR(interleaved.probability_at(s), final_only.probability_at(s),
              0.10 * final_only.probability_at(s));
}

TEST(IncrementalLocalizer, UpdateCostSublinearInGridSize) {
  core::Rng rng(15);
  const core::Vec3 s = core::from_spherical(0.6, 0.8);
  const auto rings = rings_for(s, 100, 0.05, rng);

  IncrementalLocalizer inc;  // 1 deg grid, ~20k pixels
  inc.add_rings(rings);
  const double touched_per_ring =
      static_cast<double>(inc.pixels_touched_total()) /
      static_cast<double>(inc.n_rings());
  // A ring's truncation band covers a thin annulus; the update must
  // touch a small fraction of the grid or the accumulator degenerates
  // into a batch recompute.
  EXPECT_LT(touched_per_ring * 10.0,
            static_cast<double>(inc.fine_grid().n_pixels()));
}

TEST(IncrementalLocalizer, UnusableRingsRejectedAndCounted) {
  IncrementalLocalizer inc;
  recon::ComptonRing bad;
  bad.axis = {0.0, 0.0, 1.0};
  bad.eta = 0.5;
  bad.d_eta = 0.0;  // zero width: unusable for the likelihood
  EXPECT_EQ(inc.add_ring(bad), 0u);
  bad.d_eta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(inc.add_ring(bad), 0u);
  EXPECT_EQ(inc.n_rings(), 0u);
  EXPECT_EQ(inc.rings_rejected(), 2u);
}

TEST(IncrementalLocalizer, EmptyAccumulatorIsUniformAndFinite) {
  IncrementalLocalizer inc;
  // No rings: zero excess everywhere is a *valid* (uniform) posterior,
  // not a degenerate one — and every query is finite (regression:
  // NaN-free by contract).
  EXPECT_FALSE(inc.degenerate());
  const double radius = inc.credible_radius_deg(0.68);
  EXPECT_TRUE(std::isfinite(radius));
  EXPECT_GT(radius, 0.0);
  EXPECT_GT(inc.probability_at({0.0, 0.0, 1.0}), 0.0);
  // 68% of a uniform hemisphere posterior is a large region.
  EXPECT_GT(inc.credible_region_area_deg2(0.68), 1e4);
}

TEST(IncrementalLocalizer, ContentDomainEnforced) {
  core::Rng rng(16);
  IncrementalLocalizer inc;
  inc.add_rings(rings_for({0.0, 0.0, 1.0}, 20, 0.05, rng));
  EXPECT_THROW(inc.credible_region_area_deg2(0.0), std::invalid_argument);
  EXPECT_THROW(inc.credible_region_area_deg2(1.0), std::invalid_argument);
  EXPECT_THROW(inc.credible_region_area_deg2(-0.3), std::invalid_argument);
  EXPECT_THROW(
      inc.credible_region_area_deg2(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(IncrementalLocalizer, CoarseFactorOneMatchesFineEverywhere) {
  core::Rng rng(17);
  const auto rings = rings_for(core::from_spherical(0.7, 0.1), 80, 0.05,
                               rng);
  IncrementalConfig ic;
  ic.resolution_deg = 2.0;
  ic.coarse_factor = 1;
  IncrementalLocalizer inc(ic);
  inc.add_rings(rings);
  SkyMapConfig bc;
  bc.resolution_deg = 2.0;
  const SkyMap batch = full_scan_skymap(rings, bc);
  EXPECT_NEAR(inc.credible_radius_deg(0.9), batch.credible_radius_deg(0.9),
              1e-6 * batch.credible_radius_deg(0.9) + 1e-9);
}

TEST(IncrementalLocalizer, RefinementIsMonotone) {
  core::Rng rng(18);
  const auto rings = rings_for(core::from_spherical(0.5, 0.5), 150, 0.05,
                               rng);
  IncrementalLocalizer inc;
  std::size_t last = 0;
  for (std::size_t i = 0; i < rings.size(); ++i) {
    inc.add_ring(rings[i]);
    if (i % 30 == 29) {
      (void)inc.credible_radius_deg(0.68);
      const std::size_t refined = inc.refined_fine_rows();
      EXPECT_GE(refined, last);
      last = refined;
    }
  }
  EXPECT_GT(last, 0u);
}


/// FNV-1a over the bit patterns of a sequence of doubles.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

TEST(IncrementalLocalizer, SeededStreamDigestIsPinned) {
  // Pins every accumulator value and query result of a seeded stream:
  // the adaptive 68%/90% radii and peak at checkpoints (lazy
  // refinement plus the credible cut), then the full snapshot()
  // probabilities and its batch-path credible radii.  Any change to
  // which pixels a ring reaches, a pixel's residual, the order of the
  // adds, or the order of the cut moves it.  Last re-pinned when the
  // fold's residual became the batch dot product against the
  // pixel-centre table (ClosedFormDriftIsBounded bounds that move;
  // SkyMapDigest and the serve path's SeededAlertOutcomesArePinned,
  // both recorded before it, still hold).
  core::Rng rng(2026);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(35.0),
                                            core::deg_to_rad(120.0));
  const auto rings = rings_for(s, 240, 0.05, rng, 80);

  Fnv64 digest;
  IncrementalConfig fleet;  // the serve path's grid
  fleet.resolution_deg = 2.0;
  IncrementalConfig wide;  // odd coarse factor, field of view past 90 deg
  wide.resolution_deg = 0.5;
  wide.coarse_factor = 3;
  wide.max_polar_deg = 100.0;
  for (const IncrementalConfig& ic : {IncrementalConfig{}, fleet, wide}) {
    IncrementalLocalizer inc(ic);
    for (std::size_t i = 0; i < rings.size(); ++i) {
      inc.add_ring(rings[i]);
      if (i % 64 == 63) {
        digest.add(inc.credible_radius_deg(0.68));
        digest.add(inc.credible_radius_deg(0.9));
        const core::Vec3 p = inc.peak();
        digest.add(p.x);
        digest.add(p.y);
        digest.add(p.z);
      }
    }
    const SkyMap snap = inc.snapshot();
    for (std::size_t i = 0; i < snap.n_pixels(); ++i)
      digest.add(snap.probability_at(snap.grid().pixel_center(i)));
    digest.add(snap.credible_radius_deg(0.68));
    digest.add(snap.credible_radius_deg(0.9));
  }
  EXPECT_EQ(digest.h, 0xe28de063856570f0ull) << std::hex << digest.h;
}

/// bench_loc_incremental's seeded stream (make_rings there): cones
/// consistent with a source 35 deg off axis plus 25% background.
std::vector<recon::ComptonRing> bench_stream(std::size_t n) {
  core::Rng rng(0x10c);
  const core::Vec3 source = core::from_spherical(core::deg_to_rad(35.0),
                                                 core::deg_to_rad(120.0));
  constexpr double d_eta = 0.05;
  std::vector<recon::ComptonRing> rings(n);
  for (recon::ComptonRing& ring : rings) {
    ring.axis = rng.isotropic_direction();
    ring.d_eta = d_eta;
    if (rng.uniform() < 0.25) {
      ring.eta = rng.uniform(-1.0, 1.0);
    } else {
      ring.eta = std::clamp(ring.axis.dot(source) + rng.normal(0.0, d_eta),
                            -1.0, 1.0);
    }
  }
  return rings;
}

TEST(IncrementalLocalizer, BenchStreamTouchedPerRingIsExact) {
  // The exact `touched/ring` column of
  // tools/bench_loc_incremental.baseline.csv, replayed the way the
  // bench measures it (400 rings, one more, then a 68% query that
  // refines rows).  It counts the candidate pixels the band fold
  // tests, so it moves only when the set of tested pixels does.
  const auto rings = bench_stream(400);
  const std::pair<double, std::uint64_t> baseline[] = {
      {2.0, 215}, {1.0, 523}, {0.5, 1500}};
  for (const auto& [res, want] : baseline) {
    IncrementalConfig ic;
    ic.resolution_deg = res;
    IncrementalLocalizer inc(ic);
    inc.add_rings(rings);
    inc.add_ring(rings.front());
    (void)inc.credible_radius_deg(0.68);
    EXPECT_EQ(inc.pixels_touched_total() / (rings.size() + 1), want)
        << "res " << res;
  }
}

/// bench_loc_incremental's serve stream (serve_stream there; this test
/// replays its first 32 of 256): a seeded source anywhere in the upper
/// 70 deg, rings consistent with it plus 25% uniform background,
/// d_eta 0.05.
std::vector<recon::ComptonRing> serve_stream(std::uint64_t seed,
                                             std::size_t n) {
  core::Rng rng(seed);
  const core::Vec3 source =
      core::from_spherical(core::deg_to_rad(rng.uniform(0.0, 70.0)),
                           rng.uniform(-core::kPi, core::kPi));
  constexpr double d_eta = 0.05;
  std::vector<recon::ComptonRing> rings(n);
  for (recon::ComptonRing& ring : rings) {
    ring.axis = rng.isotropic_direction();
    ring.d_eta = d_eta;
    ring.eta = rng.uniform() < 0.25
                   ? rng.uniform(-1.0, 1.0)
                   : std::clamp(ring.axis.dot(source) + rng.normal(0.0, d_eta),
                                -1.0, 1.0);
  }
  return rings;
}

TEST(IncrementalLocalizer, ServeCadenceDigestIsPinned) {
  // The serve path's load: 32 localizers on the 2 deg grid, each fed
  // 512 rings with a 68% radius check and a peak every 64 rings.  Pins
  // every radius and peak.  Recorded before ArcRanges (arc_ranges.hpp) and
  // the one-scan greedy cut; neither may move a bit of it.  The stream
  // reaches the cut's three regimes, counted from the refined rows:
  // the top pixel holding 68% alone, a cut that needs more pixels, and
  // a posterior whose excess spans more than exp() can represent (its
  // low entries underflow to +0 mass).
  IncrementalConfig ic;
  ic.resolution_deg = 2.0;
  Fnv64 digest;
  int top_alone = 0;
  int needs_more = 0;
  int underflowed = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    IncrementalLocalizer inc(ic);
    const auto rings = serve_stream(0x5e77e + k, 512);
    for (std::size_t i = 0; i < rings.size(); ++i) {
      inc.add_ring(rings[i]);
      if (i % 64 != 63) continue;
      digest.add(inc.credible_radius_deg(0.68));
      const core::Vec3 p = inc.peak();
      digest.add(p.x);
      digest.add(p.y);
      digest.add(p.z);

      double top = -std::numeric_limits<double>::infinity();
      double low = std::numeric_limits<double>::infinity();
      core::Vec3 top_dir;
      for (std::size_t fr = 0;
           fr < static_cast<std::size_t>(inc.fine_grid().n_rows()); ++fr) {
        const std::span<const double> row = inc.fine_row_excess(fr);
        for (std::size_t az = 0; az < row.size(); ++az) {
          low = std::min(low, row[az]);
          if (row[az] > top) {
            top = row[az];
            top_dir = inc.fine_grid().pixel_center(fr, az);
          }
        }
      }
      ++(inc.probability_at(top_dir) >= 0.68 ? top_alone : needs_more);
      if (top - low > 746.0) ++underflowed;
    }
  }
  // 220, 36 and 124 of the 256 checks when recorded.
  EXPECT_GT(top_alone, 0);
  EXPECT_GT(needs_more, 0);
  EXPECT_GT(underflowed, 0);
  EXPECT_EQ(digest.h, 0x9666ccb71e220450ull) << std::hex << digest.h;
}

}  // namespace
}  // namespace adapt::loc
