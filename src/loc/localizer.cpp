#include "loc/localizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/require.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {

namespace tm = core::telemetry;

using core::Vec3;

Localizer::Localizer(const LocalizerConfig& config) : config_(config) {
  ADAPT_REQUIRE(config.approximation.sample_rings >= 1,
                "approximation sample must be >= 1");
  ADAPT_REQUIRE(config.approximation.candidates_per_ring >= 4,
                "need at least a few candidates per ring");
  ADAPT_REQUIRE(config.refine.inclusion_sigma > 0.0,
                "inclusion sigma must be positive");
}

std::vector<Vec3> Localizer::approximate_candidates(
    std::span<const recon::ComptonRing> input, core::Rng& rng) const {
  // Rings with a NaN/zero d_eta or non-finite geometry would poison
  // every candidate's likelihood score; drop (and count) them up
  // front.
  std::vector<recon::ComptonRing> storage;
  const std::span<const recon::ComptonRing> rings =
      usable_rings(input, storage);
  if (rings.empty()) return {};
  const auto& cfg = config_.approximation;

  // Draw the random ring sample (without replacement via partial
  // Fisher-Yates over an index vector).
  std::vector<std::size_t> index(rings.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  const std::size_t m =
      std::min<std::size_t>(static_cast<std::size_t>(cfg.sample_rings),
                            rings.size());
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_index(index.size() - i));
    std::swap(index[i], index[j]);
  }

  // Candidate directions: points on each sampled ring's cone.  The
  // sample bounds the *candidate geometry*; scoring uses either the
  // sample (the paper's cheapest variant) or, by default, the full
  // ring set, which ranks the true mode far more reliably under heavy
  // background.
  std::vector<recon::ComptonRing> sample;
  sample.reserve(m);
  for (std::size_t i = 0; i < m; ++i) sample.push_back(rings[index[i]]);
  const std::span<const recon::ComptonRing> scoring_set =
      cfg.score_against_all ? rings
                            : std::span<const recon::ComptonRing>(sample);

  // Every ring's candidates sit at the same azimuth steps, and each
  // ring's cone basis is built once: the same expression, term for
  // term, as core::rotate_about_axis(axis, acos(eta), phi).
  const std::size_t per_ring =
      static_cast<std::size_t>(cfg.candidates_per_ring);
  std::vector<double> cos_phi(per_ring), sin_phi(per_ring);
  for (std::size_t k = 0; k < per_ring; ++k) {
    const double phi = core::kTwoPi * static_cast<double>(k) /
                       static_cast<double>(cfg.candidates_per_ring);
    cos_phi[k] = std::cos(phi);
    sin_phi[k] = std::sin(phi);
  }
  std::vector<Vec3> candidates;
  candidates.reserve(m * per_ring);
  for (const auto& ring : sample) {
    const double theta = std::acos(std::clamp(ring.eta, -1.0, 1.0));
    const double cos_theta = std::cos(theta);
    const double sin_theta = std::sin(theta);
    const Vec3 u = ring.axis.normalized();
    const Vec3 e1 = core::any_orthogonal(u);
    const Vec3 e2 = u.cross(e1);
    for (std::size_t k = 0; k < per_ring; ++k) {
      const Vec3 candidate =
          u * cos_theta + (e1 * cos_phi[k] + e2 * sin_phi[k]) * sin_theta;
      if (cfg.restrict_to_upper_sky && candidate.z < 0.0) continue;
      candidates.push_back(candidate);
    }
  }
  std::vector<double> nll(candidates.size());
  truncated_neg_log_likelihood(
      std::span<const ScoringRing>(scoring_table(scoring_set)), candidates,
      cfg.truncation_sigma, nll);

  struct Scored {
    double nll;
    Vec3 dir;
  };
  std::vector<Scored> scored(candidates.size());
  for (std::size_t i = 0; i < scored.size(); ++i)
    scored[i] = Scored{nll[i], candidates[i]};
  static tm::Counter& candidates_scored = tm::counter("loc.candidates_scored");
  candidates_scored.add(scored.size());

  // Keep the top n_starts candidates, skipping near-duplicates so the
  // starts actually explore distinct likelihood modes.  A min-heap
  // hands them out best first; only the few popped are ever ordered.
  const auto worse = [](const Scored& a, const Scored& b) {
    return a.nll > b.nll;
  };
  std::make_heap(scored.begin(), scored.end(), worse);
  constexpr double kMinSeparationCos = 0.995;  // ~5.7 degrees.
  std::vector<Vec3> seeds;
  while (!scored.empty() && static_cast<int>(seeds.size()) < cfg.n_starts) {
    std::pop_heap(scored.begin(), scored.end(), worse);
    const Vec3 dir = scored.back().dir;
    scored.pop_back();
    const auto near = [&dir](const Vec3& kept) {
      return kept.dot(dir) > kMinSeparationCos;
    };
    if (std::none_of(seeds.begin(), seeds.end(), near)) seeds.push_back(dir);
  }
  return seeds;
}

std::optional<Vec3> Localizer::approximate(
    std::span<const recon::ComptonRing> rings, core::Rng& rng) const {
  const auto seeds = approximate_candidates(rings, rng);
  if (seeds.empty()) return std::nullopt;
  return seeds.front();
}

LocalizationResult Localizer::refine(std::span<const recon::ComptonRing> input,
                                     const Vec3& initial) const {
  const auto& cfg = config_.refine;
  LocalizationResult result;
  result.rings_total = input.size();
  result.direction = initial.normalized();

  // Same hygiene as the approximation stage: a single NaN d_eta in the
  // residual would silently wreck the inclusion cut and the fit.
  std::vector<recon::ComptonRing> storage;
  const std::span<const recon::ComptonRing> rings =
      usable_rings(input, storage);
  if (rings.size() < 2) return result;

  std::vector<std::uint8_t> mask(rings.size(), 1);
  Vec3 s = result.direction;

  for (int it = 0; it < cfg.max_iterations; ++it) {
    result.iterations = it + 1;

    // Select rings consistent with the current estimate; relax the cut
    // rather than proceed with too few.
    double cut = cfg.inclusion_sigma;
    std::size_t kept = 0;
    for (int relax = 0; relax <= cfg.max_relaxations; ++relax) {
      kept = 0;
      for (std::size_t i = 0; i < rings.size(); ++i) {
        const bool keep = std::abs(ring_residual(rings[i], s)) < cut;
        mask[i] = keep ? 1 : 0;
        if (keep) ++kept;
      }
      if (kept >= std::min(cfg.min_rings, rings.size())) break;
      cut *= cfg.relax_factor;
    }
    if (kept < 2) break;

    const auto next = fit_direction(
        rings, std::span<const std::uint8_t>(mask.data(), mask.size()),
        cfg.least_squares, s);
    if (!next) break;

    const double step = core::angle_between(s, *next);
    s = *next;
    result.direction = s;
    result.valid = true;
    result.rings_used = kept;
    if (step < cfg.convergence_angle_rad) {
      result.converged = true;
      break;
    }
  }
  static tm::Counter& refine_iterations = tm::counter("loc.refine_iterations");
  refine_iterations.add(static_cast<std::uint64_t>(result.iterations));
  return result;
}

LocalizationResult Localizer::localize(
    std::span<const recon::ComptonRing> input, core::Rng& rng) const {
  // Sanitize once here; the nested approximation/refinement calls then
  // see only usable rings (their own validation pass is a cheap
  // no-copy scan) and rejected rings are counted exactly once.
  std::vector<recon::ComptonRing> storage;
  const std::span<const recon::ComptonRing> rings =
      usable_rings(input, storage);

  // No seeds means no estimate is possible — every candidate was
  // filtered (e.g. restrict_to_upper_sky against a below-horizon cone
  // population) or no ring was usable.  The result must say so
  // explicitly: a default-constructed LocalizationResult carries
  // valid=false and a zero direction, never a stale estimate.
  const auto seeds = approximate_candidates(rings, rng);
  if (seeds.empty()) {
    static tm::Counter& no_seeds = tm::counter("loc.localize_invalid.no_seeds");
    no_seeds.add();
    LocalizationResult r;
    r.valid = false;
    r.rings_total = input.size();
    return r;
  }

  // Multi-start: refine each seed, keep the direction whose truncated
  // joint likelihood over *all* rings is best.
  std::vector<LocalizationResult> refined;
  std::vector<Vec3> directions;
  for (const Vec3& seed : seeds) {
    const LocalizationResult candidate = refine(rings, seed);
    if (!candidate.valid) continue;
    directions.push_back(candidate.direction);
    refined.push_back(candidate);
  }
  std::vector<double> nll(directions.size());
  truncated_neg_log_likelihood(rings, directions,
                               config_.approximation.truncation_sigma, nll);
  LocalizationResult best;
  double best_nll = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < refined.size(); ++i) {
    if (nll[i] < best_nll) {
      best_nll = nll[i];
      best = refined[i];
    }
  }
  if (!best.valid) {
    // Every seed's refinement failed (fewer than two usable rings, or
    // no stable fit): surface the failure instead of a default
    // direction that looks like an estimate.
    static tm::Counter& refine_failed =
        tm::counter("loc.localize_invalid.refine_failed");
    refine_failed.add();
  }
  best.rings_total = input.size();  // Report against the raw input,
                                    // including any sanitized-away rings.
  return best;
}

}  // namespace adapt::loc
