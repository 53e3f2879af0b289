#include "loc/likelihood.hpp"

#include <algorithm>
#include <cmath>

#include "core/require.hpp"
#include "core/telemetry.hpp"

namespace adapt::loc {

bool ring_usable(const recon::ComptonRing& ring) {
  return std::isfinite(ring.d_eta) && ring.d_eta > 0.0 &&
         std::isfinite(ring.eta) && std::isfinite(ring.axis.x) &&
         std::isfinite(ring.axis.y) && std::isfinite(ring.axis.z);
}

std::span<const recon::ComptonRing> usable_rings(
    std::span<const recon::ComptonRing> rings,
    std::vector<recon::ComptonRing>& storage) {
  std::size_t bad = 0;
  for (const auto& r : rings)
    if (!ring_usable(r)) ++bad;
  if (bad == 0) return rings;

  namespace tm = core::telemetry;
  static tm::Counter& bad_deta = tm::counter("loc.rings_rejected.bad_deta");
  static tm::Counter& non_finite =
      tm::counter("loc.rings_rejected.non_finite");
  storage.clear();
  storage.reserve(rings.size() - bad);
  for (const auto& r : rings) {
    if (ring_usable(r)) {
      storage.push_back(r);
    } else if (!(std::isfinite(r.d_eta) && r.d_eta > 0.0)) {
      bad_deta.add();
    } else {
      non_finite.add();
    }
  }
  return storage;
}

double ring_residual(const recon::ComptonRing& ring, const core::Vec3& s) {
  ADAPT_REQUIRE(ring.d_eta > 0.0, "ring has non-positive d_eta");
  return (ring.axis.dot(s) - ring.eta) / ring.d_eta;
}

double neg_log_likelihood(std::span<const recon::ComptonRing> rings,
                          const core::Vec3& s) {
  double nll = 0.0;
  for (const auto& ring : rings) {
    const double r = ring_residual(ring, s);
    nll += 0.5 * r * r;
  }
  return nll;
}

namespace {

/// Candidates per walk over the rings.
constexpr std::size_t kLanes = 8;

/// Truncated NLL of `W` candidate directions in one walk over the
/// rings.  Lane k is exactly the one-candidate sum: ring_residual's
/// (c.s - eta) / d_eta, squared, capped, halved and added in ring
/// order.  Each ring is loaded once per block, and the lanes' sums are
/// independent, so their divides and adds overlap instead of queueing
/// behind one loop-carried add.  Plain C++ on purpose: `omp simd` has
/// the compiler pack the lanes into vector registers (two per SSE2
/// divide on baseline x86-64) with the same IEEE operations lane by
/// lane — `r2 < cap2 ? r2 : cap2` is exactly minpd, and no lane's sum
/// is reassociated — so the sums do not depend on how it vectorizes.
template <std::size_t W, typename Ring>
void truncated_nll_lanes(std::span<const Ring> rings, const core::Vec3* dirs,
                         double cap2, double* out) {
  double x[W], y[W], z[W], nll[W];
  for (std::size_t k = 0; k < W; ++k) {
    x[k] = dirs[k].x;
    y[k] = dirs[k].y;
    z[k] = dirs[k].z;
    nll[k] = 0.0;
  }
  for (const auto& ring : rings) {
    ADAPT_REQUIRE(ring.d_eta > 0.0, "ring has non-positive d_eta");
    const core::Vec3 c = ring.axis;
#pragma omp simd
    for (std::size_t k = 0; k < W; ++k) {
      const double r =
          (c.x * x[k] + c.y * y[k] + c.z * z[k] - ring.eta) / ring.d_eta;
      const double r2 = r * r;
      nll[k] += 0.5 * (r2 < cap2 ? r2 : cap2);
    }
  }
  for (std::size_t k = 0; k < W; ++k) out[k] = nll[k];
}

/// The many-candidate scorer over either ring layout.
template <typename Ring>
void score_candidates(std::span<const Ring> rings,
                      std::span<const core::Vec3> dirs, double cap_sigma,
                      std::span<double> out) {
  ADAPT_REQUIRE(cap_sigma > 0.0, "cap must be positive");
  ADAPT_REQUIRE(out.size() == dirs.size(), "one output per candidate");
  const double cap2 = cap_sigma * cap_sigma;
  const std::size_t n = dirs.size();
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes)
    truncated_nll_lanes<kLanes>(rings, &dirs[k], cap2, &out[k]);
  const std::size_t tail = n - k;
  if (tail == 1) {
    truncated_nll_lanes<1>(rings, &dirs[k], cap2, &out[k]);
  } else if (tail > 1) {
    // A short last block fills its spare lanes with its last candidate;
    // the lanes are independent, so the padding only costs time.
    core::Vec3 block[kLanes];
    double block_out[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i)
      block[i] = dirs[k + std::min(i, tail - 1)];
    truncated_nll_lanes<kLanes>(rings, block, cap2, block_out);
    for (std::size_t i = 0; i < tail; ++i) out[k + i] = block_out[i];
  }
}

}  // namespace

void truncated_neg_log_likelihood(std::span<const recon::ComptonRing> rings,
                                  std::span<const core::Vec3> dirs,
                                  double cap_sigma, std::span<double> out) {
  score_candidates(rings, dirs, cap_sigma, out);
}

std::vector<ScoringRing> scoring_table(
    std::span<const recon::ComptonRing> rings) {
  std::vector<ScoringRing> table(rings.size());
  for (std::size_t i = 0; i < rings.size(); ++i)
    table[i] = ScoringRing{rings[i].axis, rings[i].eta, rings[i].d_eta};
  return table;
}

void truncated_neg_log_likelihood(std::span<const ScoringRing> rings,
                                  std::span<const core::Vec3> dirs,
                                  double cap_sigma, std::span<double> out) {
  score_candidates(rings, dirs, cap_sigma, out);
}

double truncated_neg_log_likelihood(std::span<const recon::ComptonRing> rings,
                                    const core::Vec3& s, double cap_sigma) {
  double nll = 0.0;
  truncated_neg_log_likelihood(rings, std::span<const core::Vec3>(&s, 1),
                               cap_sigma, std::span<double>(&nll, 1));
  return nll;
}

double ring_weight(const recon::ComptonRing& ring) {
  ADAPT_REQUIRE(ring.d_eta > 0.0, "ring has non-positive d_eta");
  return 1.0 / (ring.d_eta * ring.d_eta);
}

}  // namespace adapt::loc
