#include "loc/skymap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "full_scan_oracle.hpp"
#include "loc/localizer.hpp"
#include "temp_path.hpp"

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

TEST(SkyMap, NormalizedToUnitMass) {
  core::Rng rng(1);
  const core::Vec3 s = core::from_spherical(0.5, 1.0);
  const auto rings = rings_for(s, 100, 0.05, rng);
  const SkyMap map = SkyMap::compute(rings);
  // probability_at sums are awkward to reach; verify via the CSV dump.
  const std::string path = test::temp_path("adaptml_skymap_norm", ".csv");
  ASSERT_TRUE(map.write_csv(path));
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "polar_deg,azimuth_deg,probability");
  double total = 0.0;
  double polar;
  double azimuth;
  double prob;
  char comma;
  while (f >> polar >> comma >> azimuth >> comma >> prob) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-6);
  std::remove(path.c_str());
}

TEST(SkyMap, PeakNearTrueSource) {
  core::Rng rng(2);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(35.0),
                                            core::deg_to_rad(120.0));
  const auto rings = rings_for(s, 200, 0.05, rng);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_LT(core::rad_to_deg(core::angle_between(map.peak(), s)), 2.5);
}

TEST(SkyMap, RefinedPeakFindsCleanSource) {
  // An exhaustive scan of a clean source, polished by the robust
  // refinement, lands within a degree of the truth.
  core::Rng rng(1);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(42.0), 1.3);
  const auto rings = rings_for(s, 200, 0.05, rng);
  const auto result = Localizer().refine(rings, SkyMap::compute(rings).peak());
  ASSERT_TRUE(result.valid);
  EXPECT_LT(core::rad_to_deg(core::angle_between(result.direction, s)), 1.0);
}

TEST(SkyMap, PeakSurvivesBackgroundContamination) {
  core::Rng rng(3);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(20.0), 0.4);
  const auto rings = rings_for(s, 120, 0.05, rng, 300);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_LT(core::rad_to_deg(core::angle_between(map.peak(), s)), 3.0);
}

TEST(SkyMap, PeakSurvivesHeavyContamination) {
  // Three background rings per source ring.
  core::Rng rng(2);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(15.0), -0.7);
  const auto rings = rings_for(s, 100, 0.05, rng, 300);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_LT(core::rad_to_deg(core::angle_between(map.peak(), s)), 2.5);
}

TEST(SkyMap, HorizonSourcePeakStaysAboveHorizon) {
  // A source just above the horizon must not be pushed below it.
  core::Rng rng(5);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(85.0), 0.0);
  const auto rings = rings_for(s, 150, 0.05, rng);
  const core::Vec3 peak = SkyMap::compute(rings).peak();
  EXPECT_GE(peak.z, -0.05);
  EXPECT_LT(core::rad_to_deg(core::angle_between(peak, s)), 2.0);
}

TEST(SkyMap, FastLocalizerAgreesWithRefinedPeak) {
  // The production localizer must land on the posterior's mode, polished
  // by the same robust refinement, across a spread of sources and
  // contamination levels.
  Localizer fast;
  for (int trial = 0; trial < 8; ++trial) {
    core::Rng rng(100 + trial);
    const core::Vec3 s = core::from_spherical(
        core::deg_to_rad(10.0 + 9.0 * trial), 0.7 * trial);
    const auto rings = rings_for(s, 150, 0.05, rng, 150);
    core::Rng loc_rng(7);
    const auto quick = fast.localize(rings, loc_rng);
    const auto reference = fast.refine(rings, SkyMap::compute(rings).peak());
    ASSERT_TRUE(quick.valid);
    ASSERT_TRUE(reference.valid);
    EXPECT_LT(core::rad_to_deg(core::angle_between(quick.direction,
                                                   reference.direction)),
              2.0)
        << "trial " << trial;
  }
}

TEST(SkyMap, CredibleRegionShrinksWithMoreRings) {
  const core::Vec3 s = core::from_spherical(0.7, -0.5);
  core::Rng rng1(4);
  core::Rng rng2(4);
  const SkyMap sparse = SkyMap::compute(rings_for(s, 40, 0.05, rng1));
  const SkyMap dense = SkyMap::compute(rings_for(s, 400, 0.05, rng2));
  EXPECT_LT(dense.credible_region_area_deg2(0.9),
            sparse.credible_region_area_deg2(0.9));
}

TEST(SkyMap, CredibleRegionGrowsWithContent) {
  core::Rng rng(5);
  const core::Vec3 s = core::from_spherical(0.6, 2.0);
  const SkyMap map = SkyMap::compute(rings_for(s, 100, 0.08, rng));
  EXPECT_LT(map.credible_region_area_deg2(0.5),
            map.credible_region_area_deg2(0.9));
  EXPECT_GT(map.credible_radius_deg(0.9), 0.0);
  EXPECT_THROW(map.credible_region_area_deg2(0.0), std::invalid_argument);
}

TEST(SkyMap, CredibleRegionCoversTruthAtStatedRate) {
  // Property: over repeated realizations, the 90% region should
  // contain the truth about 90% of the time (within small-sample
  // slack).  Use the pixel-density ordering membership test.
  int covered = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    core::Rng rng(100 + t);
    const core::Vec3 s = core::from_spherical(0.5, 0.3 * t);
    const auto rings = rings_for(s, 150, 0.05, rng);
    const SkyMap map = SkyMap::compute(rings);
    // Membership: truth pixel's probability exceeds the density cut
    // that bounds the 90% region <=> the peak-ward set containing the
    // truth has mass < 0.9.  Approximate with the simpler check that
    // the truth lies within the credible radius of the peak.
    const double radius = map.credible_radius_deg(0.9);
    const double err = core::rad_to_deg(core::angle_between(map.peak(), s));
    if (err <= radius + map.config().resolution_deg) ++covered;
  }
  EXPECT_GE(covered, trials * 7 / 10);
}

TEST(SkyMap, ProbabilityAtFieldOfViewEdge) {
  core::Rng rng(6);
  const core::Vec3 s = core::from_spherical(0.4, 0.0);
  const SkyMap map = SkyMap::compute(rings_for(s, 80, 0.05, rng));
  // Below the horizon: exactly zero.
  EXPECT_DOUBLE_EQ(map.probability_at({0.0, 0.0, -1.0}), 0.0);
  // At the true source: positive.
  EXPECT_GT(map.probability_at(s), 0.0);
}

TEST(SkyMap, DegenerateLogPosteriorYieldsUniformNotNaN) {
  // Regression (zero-norm degenerate skymap): a posterior whose every
  // pixel underflowed to -inf used to normalize into a NaN map.  It
  // must instead come back flagged degenerate with the uniform
  // solid-angle posterior.
  const SkyGrid grid(2.0, 90.0);
  const std::vector<double> log_post(
      grid.n_pixels(), -std::numeric_limits<double>::infinity());
  const SkyMap map = SkyMap::from_log_posterior(
      grid, log_post, SkyMapConfig{2.0, 3.0, 90.0});
  EXPECT_TRUE(map.degenerate());
  const double p = map.probability_at(core::from_spherical(0.5, 1.0));
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0);
  // Credible queries stay well-defined on the uniform fallback.
  EXPECT_TRUE(std::isfinite(map.credible_radius_deg(0.68)));
  EXPECT_GT(map.credible_region_area_deg2(0.68), 1e4);
}

TEST(SkyMap, HealthyMapIsNotDegenerate) {
  core::Rng rng(8);
  const auto rings = rings_for(core::from_spherical(0.5, 0.5), 60, 0.05,
                               rng);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_FALSE(map.degenerate());
}

TEST(SkyMap, CredibleContentDomainEnforced) {
  core::Rng rng(9);
  const SkyMap map =
      SkyMap::compute(rings_for({0.0, 0.0, 1.0}, 40, 0.05, rng));
  EXPECT_THROW(map.credible_region_area_deg2(1.0), std::invalid_argument);
  EXPECT_THROW(map.credible_region_area_deg2(-0.1), std::invalid_argument);
  EXPECT_THROW(
      map.credible_region_area_deg2(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(map.credible_radius_deg(0.0), std::invalid_argument);
}

TEST(SkyMap, UnusableRingsFilteredNotFatal) {
  // A zero- or NaN-width ring in the stream must be skipped, exactly
  // as the point-estimate localizers skip it — not abort the map.
  core::Rng rng(10);
  const core::Vec3 s = core::from_spherical(0.5, 1.0);
  auto rings = rings_for(s, 60, 0.05, rng);
  const SkyMap clean = SkyMap::compute(rings);
  recon::ComptonRing bad;
  bad.axis = {0.0, 0.0, 1.0};
  bad.eta = 0.2;
  bad.d_eta = 0.0;
  rings.push_back(bad);
  bad.d_eta = std::numeric_limits<double>::quiet_NaN();
  rings.push_back(bad);
  const SkyMap mixed = SkyMap::compute(rings);
  EXPECT_DOUBLE_EQ(mixed.probability_at(s), clean.probability_at(s));
  EXPECT_DOUBLE_EQ(mixed.credible_radius_deg(0.68),
                   clean.credible_radius_deg(0.68));
}

TEST(SkyMap, ProbabilityAtExactFieldOfViewEdge) {
  // The horizon vector sits exactly at polar == max_polar_deg; it
  // belongs to the last row (regression: it used to fall out of the
  // map and read back 0).
  core::Rng rng(11);
  const SkyMap map =
      SkyMap::compute(rings_for({1.0, 0.0, 0.0}, 80, 0.05, rng));
  EXPECT_GT(map.probability_at({1.0, 0.0, 0.0}), 0.0);
}

TEST(SkyMap, ResolutionControlsPixelCount) {
  core::Rng rng(7);
  const auto rings = rings_for({0, 0, 1}, 50, 0.05, rng);
  SkyMapConfig coarse;
  coarse.resolution_deg = 4.0;
  SkyMapConfig fine;
  fine.resolution_deg = 1.0;
  const SkyMap a = SkyMap::compute(rings, coarse);
  const SkyMap b = SkyMap::compute(rings, fine);
  EXPECT_GT(b.n_pixels(), 10 * a.n_pixels());
  EXPECT_THROW(SkyMap::compute(rings, SkyMapConfig{0.0, 3.0, 90.0}),
               std::invalid_argument);
}

/// Greedy cut through a std::stable_sort on key descending: ties keep
/// ascending index order.
double stable_sort_cut_area(const std::vector<double>& key,
                            const std::vector<double>& mass,
                            const std::vector<double>& area, double content) {
  std::vector<std::size_t> order(key.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  double sum = 0.0;
  double total = 0.0;
  for (const std::size_t i : order) {
    total += area[i];
    sum += mass[i];
    if (sum >= content) break;
  }
  return total;
}

TEST(CredibleCut, TiesTakenInIndexOrderLikeStableSort) {
  core::Rng rng(21);
  for (const int levels : {1, 2, 5, 1000}) {
    const std::size_t n = 997;
    std::vector<double> key(n);
    std::vector<double> mass(n);
    std::vector<double> area(n);
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = static_cast<double>(
          static_cast<int>(rng.uniform(0.0, static_cast<double>(levels))));
      area[i] = rng.uniform(0.5, 2.0);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += (mass[i] = key[i] + 1.0);
    for (double& m : mass) m /= norm;
    for (const double content : {0.05, 0.5, 0.68, 0.9, 0.999}) {
      std::vector<std::size_t> heap;
      std::vector<std::size_t> taken;
      greedy_mass_cut(key, mass, content, heap,
                      [&](std::size_t i) { taken.push_back(i); });
      ASSERT_FALSE(taken.empty());
      for (std::size_t k = 1; k < taken.size(); ++k) {
        const std::size_t a = taken[k - 1];
        const std::size_t b = taken[k];
        EXPECT_TRUE(key[a] > key[b] || (key[a] == key[b] && a < b))
            << "levels " << levels << " step " << k;
      }
      double cut_area = 0.0;
      for (const std::size_t i : taken) cut_area += area[i];
      EXPECT_EQ(cut_area, stable_sort_cut_area(key, mass, area, content))
          << "levels " << levels << " content " << content;
    }
  }
}

/// The entries a greedy cut takes, in order.
std::vector<std::size_t> cut_sequence(const std::vector<double>& key,
                                      const std::vector<double>& mass,
                                      double content) {
  std::vector<std::size_t> heap;
  std::vector<std::size_t> taken;
  greedy_mass_cut(key, mass, content, heap,
                  [&](std::size_t i) { taken.push_back(i); });
  return taken;
}

/// The same sequence through a std::stable_sort on key descending.
std::vector<std::size_t> stable_sort_sequence(const std::vector<double>& key,
                                              const std::vector<double>& mass,
                                              double content) {
  std::vector<std::size_t> order(key.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  std::vector<std::size_t> taken;
  double sum = 0.0;
  for (const std::size_t i : order) {
    taken.push_back(i);
    sum += mass[i];
    if (sum >= content) break;
  }
  return taken;
}

TEST(CredibleCut, TiesAtTheMaximumTakeTheLowestIndexFirst) {
  // Three entries share the top key; the first taken is the lowest
  // index of them, whether it alone reaches the content or not.
  const std::vector<double> key = {1.0, 3.0, 2.0, 3.0, 0.5, 3.0};
  const std::vector<double> mass = {0.05, 0.3, 0.1, 0.3, 0.05, 0.2};
  EXPECT_EQ(cut_sequence(key, mass, 0.25), (std::vector<std::size_t>{1}));
  EXPECT_EQ(cut_sequence(key, mass, 0.5), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(cut_sequence(key, mass, 0.85),
            (std::vector<std::size_t>{1, 3, 5, 2}));
  // Every key tied: plain index order.
  const std::vector<double> flat(7, 2.5);
  const std::vector<double> even(7, 1.0 / 7.0);
  EXPECT_EQ(cut_sequence(flat, even, 0.4),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(CredibleCut, FirstEntryReachingContentIsTheOnlyTake) {
  // A peaked posterior: the top entry alone holds the content, so the
  // cut takes it and nothing else, wherever it sits.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{999}}) {
    for (const std::size_t top : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<double> key(n, -5.0);
      std::vector<double> mass(n, n > 1 ? 0.2 / static_cast<double>(n - 1) : 0.0);
      key[top] = 7.0;
      mass[top] = 0.8;
      EXPECT_EQ(cut_sequence(key, mass, 0.8), (std::vector<std::size_t>{top}))
          << "n " << n << " top " << top;
      EXPECT_EQ(cut_sequence(key, mass, 0.68), (std::vector<std::size_t>{top}))
          << "n " << n << " top " << top;
      if (n > 1) {
        // Just short: the top entry first, then the rest by index.
        const auto more = cut_sequence(key, mass, 0.81);
        ASSERT_GT(more.size(), 1u) << "n " << n << " top " << top;
        EXPECT_EQ(more[0], top);
        EXPECT_EQ(more[1], top == 0 ? 1u : 0u);
      }
    }
  }
}

TEST(CredibleCut, EmptyInputTakesNothing) {
  const std::vector<double> none;
  std::vector<std::size_t> heap = {4, 2};
  bool called = false;
  greedy_mass_cut(none, none, 0.5, heap, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(CredibleCut, RandomKeysCutLikeStableSort) {
  // Random keys drawn from a few levels (many ties) or a continuum,
  // random masses, and contents from a sliver to more than the total:
  // the visit sequence equals a stable sort's, entry for entry.
  core::Rng rng(0xc07);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(1 + rng.uniform_index(300));
    const std::uint64_t levels = trial % 3 == 0 ? 0 : 1 + rng.uniform_index(6);
    std::vector<double> key(n);
    std::vector<double> mass(n);
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = levels == 0 ? rng.uniform(-800.0, 20.0)
                           : static_cast<double>(rng.uniform_index(levels));
      norm += (mass[i] = rng.uniform() < 0.1 ? 0.0 : rng.uniform());
    }
    if (norm > 0.0)
      for (double& m : mass) m /= norm;
    for (const double content : {1e-6, 0.3, 0.68, 0.9, 0.999, 1.5})
      ASSERT_EQ(cut_sequence(key, mass, content),
                stable_sort_sequence(key, mass, content))
          << "trial " << trial << " n " << n << " content " << content;
  }
}

TEST(SkyMap, TiedAndUniformMapsCutLikeStableSort) {
  const SkyGrid grid(3.0, 90.0);
  std::vector<double> uniform(grid.n_pixels(), 0.0);
  std::vector<double> plateaus(grid.n_pixels());
  for (std::size_t i = 0; i < plateaus.size(); ++i)
    plateaus[i] = static_cast<double>((i / 37) % 3);
  for (const auto& log_post : {uniform, plateaus}) {
    const SkyMap map =
        SkyMap::from_log_posterior(grid, log_post, SkyMapConfig{3.0, 3.0, 90.0});
    std::vector<double> density(grid.n_pixels());
    std::vector<double> mass(grid.n_pixels());
    std::vector<double> area(grid.n_pixels());
    for (std::size_t i = 0; i < grid.n_pixels(); ++i) {
      mass[i] = map.probability_at(grid.pixel_center(i));
      area[i] = grid.row_pixel_solid_angle_deg2(grid.row_of(i));
      density[i] = mass[i] / area[i];
    }
    for (const double content : {0.1, 0.68, 0.9})
      EXPECT_EQ(map.credible_region_area_deg2(content),
                stable_sort_cut_area(density, mass, area, content))
          << "content " << content;
  }
}

/// Holds `map` to the full scan: every pixel within 1e-9 relative, the
/// same peak pixel and degenerate flag, and 68%/90% areas within one
/// pixel of greedy-cut tie-breaking.
void expect_matches_full_scan(const SkyMap& map, const SkyMap& scan,
                              const std::string& where) {
  ASSERT_EQ(map.n_pixels(), scan.n_pixels()) << where;
  const SkyGrid& grid = scan.grid();
  double worst = 0.0;
  for (std::size_t i = 0; i < scan.n_pixels(); ++i) {
    const core::Vec3 dir = grid.pixel_center(i);
    const double want = scan.probability_at(dir);
    const double diff = std::abs(map.probability_at(dir) - want);
    // Below ~1e-290 the masses are subnormal-range exp() values, whose
    // relative precision is gone; no query can see them.
    if (want > 1e-290) worst = std::max(worst, diff / want);
    else EXPECT_LT(diff, 1e-290) << where << " pixel " << i;
  }
  EXPECT_LT(worst, 1e-9) << where;
  const core::Vec3 a = map.peak();
  const core::Vec3 b = scan.peak();
  EXPECT_TRUE(a.x == b.x && a.y == b.y && a.z == b.z) << where;
  EXPECT_EQ(map.degenerate(), scan.degenerate()) << where;
  double largest_pixel = 0.0;
  for (int row = 0; row < grid.n_rows(); ++row)
    largest_pixel = std::max(
        largest_pixel,
        grid.row_pixel_solid_angle_deg2(static_cast<std::size_t>(row)));
  for (const double content : {0.68, 0.9})
    EXPECT_NEAR(map.credible_region_area_deg2(content),
                scan.credible_region_area_deg2(content), largest_pixel)
        << where << " content " << content;
}

TEST(SkyMap, BandFoldMatchesFullScan) {
  core::Rng rng(31);
  const auto clean =
      rings_for(core::from_spherical(core::deg_to_rad(28.0), 2.4), 240,
                0.05, rng);
  const auto mixed =
      rings_for(core::from_spherical(core::deg_to_rad(71.0), -1.1), 200,
                0.04, rng, 400);
  recon::ComptonRing bad;
  bad.axis = {0.0, 0.0, 1.0};
  bad.eta = 0.2;
  bad.d_eta = 0.0;
  std::vector<recon::ComptonRing> unusable(3, bad);
  unusable[1].d_eta = std::numeric_limits<double>::quiet_NaN();
  unusable[2].axis.x = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::vector<recon::ComptonRing>>>
      sets = {{"clean", clean},
              {"mixed", mixed},
              {"empty", {}},
              {"all unusable", unusable}};
  for (const double res : {0.5, 1.0, 2.0}) {
    for (const double max_polar : {90.0, 100.0}) {
      const SkyMapConfig config{res, 3.0, max_polar};
      for (const auto& [name, rings] : sets) {
        expect_matches_full_scan(
            SkyMap::compute(rings, config), full_scan_skymap(rings, config),
            name + " res " + std::to_string(res) + " fov " +
                std::to_string(max_polar));
      }
    }
  }
}

/// FNV-1a over every pixel probability, the peak and the 68%/90%
/// credible radii of `make_map`'s maps of two seeded ring sets at 1
/// and 2 degrees.
template <class MakeMap>
std::uint64_t seeded_map_digest(MakeMap&& make_map) {
  core::Fnv1a64 digest;
  const auto fold = [&digest](double v) { digest.update(&v, sizeof v); };
  for (const std::uint64_t seed : {41u, 42u}) {
    core::Rng rng(seed);
    const core::Vec3 s = core::from_spherical(
        core::deg_to_rad(seed == 41u ? 35.0 : 62.0), rng.uniform(-3.0, 3.0));
    const auto rings = rings_for(s, 180, 0.05, rng, 60);
    for (const double res : {1.0, 2.0}) {
      SkyMapConfig config;
      config.resolution_deg = res;
      const SkyMap map = make_map(rings, config);
      for (std::size_t i = 0; i < map.n_pixels(); ++i)
        fold(map.probability_at(map.grid().pixel_center(i)));
      const core::Vec3 peak = map.peak();
      fold(peak.x);
      fold(peak.y);
      fold(peak.z);
      fold(map.credible_radius_deg(0.68));
      fold(map.credible_radius_deg(0.9));
    }
  }
  return digest.digest();
}

TEST(SkyMapDigest, SeededRingsAtOneAndTwoDegrees) {
  // The test-local full scan against the value SkyMap::compute gave
  // while it was that scan: the oracle is the code it replaced, bit for
  // bit.  Recorded before the pixel centres moved into a shared
  // per-geometry table, so it also pins the table's centre bits.
  const std::uint64_t digest = seeded_map_digest(full_scan_skymap);
  EXPECT_EQ(digest, 0x83750f1d93913909ull) << std::hex << digest;
}

TEST(SkyMapDigest, BandFoldMaps) {
  // SkyMap::compute, the band fold plus snapshot(), on the same rings.
  // Its sums associate per ring, not per pixel, so its bits differ from
  // the scan's (BandFoldMatchesFullScan bounds by how much); this pins
  // them, and moves with any change to a fold residual, add order or
  // cut order.
  const std::uint64_t digest = seeded_map_digest(SkyMap::compute);
  EXPECT_EQ(digest, 0xce66f590e99b2236ull) << std::hex << digest;
}

}  // namespace
}  // namespace adapt::loc
