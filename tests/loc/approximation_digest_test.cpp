// Bit-identity gates for the approximation stage's candidate scoring:
//   - seeded digests of Localizer::approximate_candidates and
//     Localizer::localize, recorded before candidate-blocked scoring;
//   - the many-candidate truncated_neg_log_likelihood against a
//     one-candidate-at-a-time loop, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "loc/likelihood.hpp"
#include "loc/localizer.hpp"

namespace adapt::loc {
namespace {

using core::Vec3;

template <typename T>
void fold(core::Fnv1a64& h, const T& v) {
  h.update(&v, sizeof v);
}

void fold(core::Fnv1a64& h, const Vec3& v) {
  fold(h, v.x);
  fold(h, v.y);
  fold(h, v.z);
}

/// A burst-sized ring set: a sixth signal rings consistent with a
/// source 35 deg off axis, a third consistent with a point below the
/// horizon (so restrict_to_upper_sky changes the seeds), the rest
/// background cones at random.
std::vector<recon::ComptonRing> seeded_rings(std::size_t n,
                                             std::uint64_t seed) {
  core::Rng rng(seed);
  const Vec3 source = core::from_spherical(0.61, 0.9);
  const Vec3 below = core::from_spherical(2.3, -2.0);
  std::vector<recon::ComptonRing> rings(n);
  for (std::size_t i = 0; i < n; ++i) {
    recon::ComptonRing& r = rings[i];
    r.axis = rng.isotropic_direction();
    r.d_eta = rng.uniform(0.015, 0.15);
    if (i % 3 == 0 || i % 6 == 1) {
      const Vec3& s = i % 3 == 0 ? below : source;
      r.eta = std::clamp(r.axis.dot(s) + rng.normal(0.0, r.d_eta), -1.0, 1.0);
    } else {
      r.eta = rng.uniform(-0.95, 0.95);
    }
  }
  return rings;
}

/// Every seventh ring: about the share that survives the background
/// net.
std::vector<recon::ComptonRing> every_seventh(
    const std::vector<recon::ComptonRing>& rings) {
  std::vector<recon::ComptonRing> out;
  for (std::size_t i = 0; i < rings.size(); i += 7) out.push_back(rings[i]);
  return out;
}

std::uint64_t approximation_digest(const std::vector<recon::ComptonRing>& rings,
                                   bool upper_sky) {
  LocalizerConfig config;
  config.approximation.restrict_to_upper_sky = upper_sky;
  const Localizer localizer(config);
  core::Fnv1a64 h;
  core::Rng seeds_rng(31);
  for (const Vec3& seed : localizer.approximate_candidates(rings, seeds_rng))
    fold(h, seed);
  core::Rng localize_rng(32);
  const LocalizationResult r = localizer.localize(rings, localize_rng);
  fold(h, r.direction);
  fold(h, r.valid);
  fold(h, r.converged);
  fold(h, r.iterations);
  fold(h, r.rings_used);
  fold(h, r.rings_total);
  return h.digest();
}

TEST(ApproximationDigest, FullRingSet) {
  const auto rings = seeded_rings(620, 77);
  EXPECT_EQ(approximation_digest(rings, true), 0x61af4d0d1c4b472fULL);
  EXPECT_EQ(approximation_digest(rings, false), 0x96260aa993def8c8ULL);
}

TEST(ApproximationDigest, SurvivorSubset) {
  const auto rings = every_seventh(seeded_rings(620, 77));
  EXPECT_EQ(approximation_digest(rings, true), 0x8cbb94a250ecf6d9ULL);
  EXPECT_EQ(approximation_digest(rings, false), 0x03bf8742ce87a2fdULL);
}

/// The pre-blocking scorer: one candidate at a time over
/// ring_residual.
double one_at_a_time(std::span<const recon::ComptonRing> rings,
                     const Vec3& s, double cap_sigma) {
  const double cap2 = cap_sigma * cap_sigma;
  double nll = 0.0;
  for (const auto& ring : rings) {
    const double r = ring_residual(ring, s);
    const double r2 = r * r;
    nll += 0.5 * (r2 < cap2 ? r2 : cap2);
  }
  return nll;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(BlockedScorer, ManyCandidatesMatchOneAtATimeBitForBit) {
  const auto rings = seeded_rings(620, 5);
  core::Rng rng(6);
  for (const std::size_t n : {1u, 7u, 9u, 767u}) {
    std::vector<Vec3> dirs(n);
    for (Vec3& d : dirs) d = rng.isotropic_direction();
    for (const double cap : {3.0, 0.7}) {
      std::vector<double> out(n, -1.0);
      truncated_neg_log_likelihood(rings, dirs, cap, out);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(bits(out[k]), bits(one_at_a_time(rings, dirs[k], cap)))
            << n << " candidates, candidate " << k << ", cap " << cap;
        ASSERT_EQ(bits(out[k]),
                  bits(truncated_neg_log_likelihood(rings, dirs[k], cap)));
      }
    }
  }
}

TEST(BlockedScorer, PackedTableMatchesRingsBitForBit) {
  const auto rings = seeded_rings(620, 7);
  const std::vector<ScoringRing> table = scoring_table(rings);
  ASSERT_EQ(table.size(), rings.size());
  core::Rng rng(8);
  for (const std::size_t n : {1u, 9u, 767u}) {
    std::vector<Vec3> dirs(n);
    for (Vec3& d : dirs) d = rng.isotropic_direction();
    std::vector<double> from_rings(n), from_table(n);
    truncated_neg_log_likelihood(rings, dirs, 3.0, from_rings);
    truncated_neg_log_likelihood(std::span<const ScoringRing>(table), dirs,
                                 3.0, from_table);
    for (std::size_t k = 0; k < n; ++k)
      ASSERT_EQ(bits(from_table[k]), bits(from_rings[k]))
          << n << " candidates, candidate " << k;
  }
}

TEST(BlockedScorer, EmptyInputs) {
  const auto rings = seeded_rings(30, 5);
  std::vector<double> none;
  truncated_neg_log_likelihood(rings, std::span<const Vec3>(), 3.0, none);
  const std::vector<Vec3> dirs = {{0, 0, 1}, {1, 0, 0}};
  std::vector<double> out(2, -1.0);
  truncated_neg_log_likelihood(std::span<const recon::ComptonRing>(), dirs,
                               3.0, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(BlockedScorer, ContractsHold) {
  auto rings = seeded_rings(40, 5);
  rings[17].d_eta = 0.0;
  std::vector<Vec3> dirs(9, Vec3{0, 0, 1});
  std::vector<double> out(9);
  EXPECT_THROW(truncated_neg_log_likelihood(rings, dirs, 3.0, out),
               std::invalid_argument);
  EXPECT_THROW(truncated_neg_log_likelihood(rings, dirs[0], 3.0),
               std::invalid_argument);
  rings[17].d_eta = -0.1;
  EXPECT_THROW(truncated_neg_log_likelihood(rings, dirs, 3.0, out),
               std::invalid_argument);

  const auto good = seeded_rings(40, 5);
  std::vector<double> short_out(8);
  EXPECT_THROW(truncated_neg_log_likelihood(good, dirs, 3.0, short_out),
               std::invalid_argument);
  EXPECT_THROW(truncated_neg_log_likelihood(good, dirs, 0.0, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace adapt::loc
