#include "loc/sky_grid.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/units.hpp"

namespace adapt::loc {
namespace {

TEST(SkyGrid, PixelCenterRoundTrips) {
  const SkyGrid grid(1.0, 90.0);
  // Every pixel's center must map back to that pixel — the seam where
  // the batch and incremental paths would otherwise drift apart.
  for (std::size_t i = 0; i < grid.n_pixels(); i += 7) {
    const auto back = grid.pixel_of(grid.pixel_center(i));
    ASSERT_TRUE(back.has_value()) << "pixel " << i;
    EXPECT_EQ(*back, i);
  }
}

TEST(SkyGrid, FieldOfViewEdgeIsInside) {
  const SkyGrid grid(1.0, 90.0);
  // A horizon vector sits exactly at polar = max_polar_deg; the edge
  // belongs to the last row (regression: the old SkyMap::probability_at
  // dropped it).
  const auto edge = grid.pixel_of({1.0, 0.0, 0.0});
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(grid.row_of(*edge),
            static_cast<std::size_t>(grid.n_rows()) - 1);
  // Clearly beyond the edge: outside.
  EXPECT_FALSE(grid.pixel_of({0.0, 0.0, -1.0}).has_value());
  const core::Vec3 below =
      core::from_spherical(core::deg_to_rad(90.1), 0.3);
  EXPECT_FALSE(grid.pixel_of(below).has_value());
}

TEST(SkyGrid, EdgeBehaviorConsistentAcrossResolutions) {
  for (const double res : {4.0, 1.0, 0.5}) {
    const SkyGrid grid(res, 90.0);
    for (const double az : {0.0, 1.0, 3.0, 6.2}) {
      const core::Vec3 dir{std::cos(az), std::sin(az), 0.0};
      const auto pixel = grid.pixel_of(dir);
      ASSERT_TRUE(pixel.has_value()) << "res " << res << " az " << az;
      EXPECT_EQ(grid.row_of(*pixel),
                static_cast<std::size_t>(grid.n_rows()) - 1);
    }
  }
}

TEST(SkyGrid, AzimuthWrapStaysInRow) {
  const SkyGrid grid(1.0, 90.0);
  // Azimuths that atan2 rounds to just below 0 (i.e. wrap to just
  // below 2*pi) must clamp into the row's last bin, not index out.
  const double polar = core::deg_to_rad(45.0);
  const core::Vec3 just_negative =
      core::from_spherical(polar, -1e-15);
  const core::Vec3 zero = core::from_spherical(polar, 0.0);
  const auto a = grid.pixel_of(just_negative);
  const auto b = grid.pixel_of(zero);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(grid.row_of(*a), grid.row_of(*b));
  // Either bin 0 (rounded through zero) or the row's last bin
  // (wrapped); both are valid pixels of the same row.
  const std::size_t row = grid.row_of(*a);
  const std::size_t az_bin = *a - grid.row_offset(row);
  EXPECT_LT(az_bin, static_cast<std::size_t>(grid.az_bins(row)));
}

TEST(SkyGrid, NonFiniteDirectionRejected) {
  const SkyGrid grid(1.0, 90.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(grid.pixel_of({nan, 0.0, 0.5}).has_value());
  EXPECT_FALSE(grid.pixel_of({0.0, nan, 0.5}).has_value());
  EXPECT_FALSE(grid.pixel_of({0.0, 0.0, nan}).has_value());
}

TEST(SkyGrid, SolidAnglesSumToCap) {
  const SkyGrid grid(1.0, 90.0);
  double total = 0.0;
  for (int row = 0; row < grid.n_rows(); ++row)
    total += grid.row_pixel_solid_angle_deg2(row) * grid.az_bins(row);
  // Hemisphere: 2*pi sr in deg^2.
  const double hemisphere =
      core::kTwoPi * std::pow(180.0 / core::kPi, 2.0);
  EXPECT_NEAR(total, hemisphere, 1e-6 * hemisphere);
}

TEST(SkyGridNormalize, FiniteValuesSumToOne) {
  const SkyGrid grid(2.0, 90.0);
  std::vector<double> log_post(grid.n_pixels(), 0.0);
  log_post[3] = 5.0;
  std::vector<double> prob;
  EXPECT_TRUE(normalize_log_posterior(grid, log_post, prob));
  double sum = 0.0;
  for (const double p : prob) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(prob[3], prob[4]);
}

TEST(SkyGridNormalize, AllNonFiniteFallsBackToUniform) {
  const SkyGrid grid(2.0, 90.0);
  // Regression for the zero-norm degenerate skymap: all mass
  // underflowed to -inf used to divide by zero into a NaN map.
  std::vector<double> log_post(
      grid.n_pixels(), -std::numeric_limits<double>::infinity());
  std::vector<double> prob;
  EXPECT_FALSE(normalize_log_posterior(grid, log_post, prob));
  double sum = 0.0;
  for (std::size_t i = 0; i < prob.size(); ++i) {
    ASSERT_TRUE(std::isfinite(prob[i])) << "pixel " << i;
    EXPECT_GT(prob[i], 0.0);
    sum += prob[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Uniform in *density*: probability proportional to solid angle.
  const double density0 = prob[0] / grid.row_pixel_solid_angle_deg2(0);
  const std::size_t last = prob.size() - 1;
  const double density1 =
      prob[last] / grid.row_pixel_solid_angle_deg2(grid.row_of(last));
  EXPECT_NEAR(density0, density1, 1e-12);
}

TEST(SkyGridNormalize, IsolatedNonFiniteContributesZero) {
  const SkyGrid grid(2.0, 90.0);
  std::vector<double> log_post(grid.n_pixels(), 0.0);
  log_post[0] = std::numeric_limits<double>::quiet_NaN();
  log_post[1] = -std::numeric_limits<double>::infinity();
  std::vector<double> prob;
  EXPECT_TRUE(normalize_log_posterior(grid, log_post, prob));
  EXPECT_EQ(prob[0], 0.0);
  EXPECT_EQ(prob[1], 0.0);
  double sum = 0.0;
  for (const double p : prob) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SkyGrid, InvalidConfigRejected) {
  EXPECT_THROW(SkyGrid(0.0, 90.0), std::invalid_argument);
  EXPECT_THROW(SkyGrid(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SkyGrid(1.0, 200.0), std::invalid_argument);
}

TEST(SkyGrid, CachedCentersAreTheClosedFormBitForBit) {
  for (const double res : {0.5, 1.0, 2.0, 8.0}) {
    for (const double max_polar : {90.0, 100.0}) {
      const SkyGrid grid(res, max_polar);
      for (std::size_t row = 0;
           row < static_cast<std::size_t>(grid.n_rows()); ++row) {
        const auto bins = static_cast<std::size_t>(grid.az_bins(row));
        ASSERT_EQ(grid.row_centers(row).size(), bins);
        for (std::size_t az = 0; az < bins; ++az) {
          const core::Vec3 want = core::from_spherical(
              grid.row_polar_rad(row),
              core::kTwoPi * (static_cast<double>(az) + 0.5) /
                  static_cast<double>(bins));
          const core::Vec3 got =
              grid.pixel_center(grid.row_offset(row) + az);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.x),
                    std::bit_cast<std::uint64_t>(want.x));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.y),
                    std::bit_cast<std::uint64_t>(want.y));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.z),
                    std::bit_cast<std::uint64_t>(want.z));
          const core::Vec3 by_row = grid.pixel_center(row, az);
          const core::Vec3 in_span = grid.row_centers(row)[az];
          ASSERT_TRUE(by_row.x == got.x && by_row.y == got.y &&
                      by_row.z == got.z);
          ASSERT_TRUE(in_span.x == got.x && in_span.y == got.y &&
                      in_span.z == got.z);
        }
      }
    }
  }
}

/// Start of a grid's pixel-centre table (row 0 comes first).
const double* table_of(const SkyGrid& grid) {
  return grid.row_centers(0).x.data();
}

TEST(SkyGrid, OneGeometrySharesOneCenterTable) {
  const SkyGrid a(2.0, 90.0);
  const SkyGrid b(2.0, 90.0);
  const SkyGrid copy = a;
  SkyGrid assigned;
  assigned = b;
  EXPECT_EQ(table_of(a), table_of(b));
  EXPECT_EQ(table_of(a), table_of(copy));
  EXPECT_EQ(table_of(a), table_of(assigned));
  // Either parameter changes the geometry, and with it the table.
  const SkyGrid finer(1.0, 90.0);
  const SkyGrid wider(2.0, 100.0);
  EXPECT_NE(table_of(a), table_of(finer));
  EXPECT_NE(table_of(a), table_of(wider));
  EXPECT_NE(table_of(finer), table_of(wider));
}

TEST(SkyGrid, ConcurrentConstructionSharesOneTable) {
  // Four threads build grids of geometries no other test uses, so the
  // first construction of each races the others through the registry.
  // Run under TSan this is the table registry's data-race check.
  constexpr int kThreads = 4;
  constexpr std::array<double, 3> kRes = {1.7, 2.3, 3.1};
  std::array<std::array<const double*, kRes.size()>, kThreads> seen{};
  std::array<double, kThreads> checksum{};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t g = 0; g < kRes.size(); ++g) {
        // Alternate the order so threads meet on different geometries.
        const std::size_t k = (g + static_cast<std::size_t>(t)) % kRes.size();
        const SkyGrid grid(kRes[k], 95.0);
        seen[static_cast<std::size_t>(t)][k] = table_of(grid);
        for (std::size_t i = 0; i < grid.n_pixels(); ++i)
          checksum[static_cast<std::size_t>(t)] += grid.pixel_center(i).z;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < kRes.size(); ++k) {
    const SkyGrid grid(kRes[k], 95.0);
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][k], table_of(grid))
          << "thread " << t << " res " << kRes[k];
  }
  for (const double sum : checksum) EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace adapt::loc
