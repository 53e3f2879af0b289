#include "recon/event_reconstruction.hpp"

#include <algorithm>
#include <cmath>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "physics/compton.hpp"
#include "physics/cross_sections.hpp"
#include "recon/error_propagation.hpp"

namespace adapt::recon {

using core::kElectronMassMeV;
using core::Vec3;
using detector::MeasuredHit;

EventReconstructor::EventReconstructor(const detector::Material& material,
                                       const ReconstructionConfig& config)
    : material_(material), config_(config) {
  ADAPT_REQUIRE(config.max_hits_for_ordering >= 2,
                "ordering needs at least two hits");
  ADAPT_REQUIRE(config.eta_slack >= 0.0, "eta slack must be >= 0");
}

namespace {

/// Mean transverse position uncertainty of a hit [cm].
double mean_sigma(const MeasuredHit& h) {
  return (h.sigma_position.x + h.sigma_position.y + h.sigma_position.z) / 3.0;
}

/// Plausibility score of a two-hit ordering (first, second): the
/// Klein-Nishina weight of the implied first-scatter angle, times the
/// attenuation probability density of the observed lever arm at the
/// post-scatter energy, as a negative log; lower is better.
double two_hit_score(const detector::Material& material,
                     const MeasuredHit& first, const MeasuredHit& second,
                     double e_total) {
  const double e1 = first.energy;
  const double e_prime = e_total - e1;
  const double cos_theta =
      std::clamp(physics::ring_cosine(e_total, e1), -1.0, 1.0);

  // Klein-Nishina angular weight (unnormalized, bounded in (0, 2]).
  const double r = physics::compton_scattered_energy(e_total, cos_theta) /
                   e_total;
  const double kn = r * r * (r + 1.0 / r - (1.0 - cos_theta * cos_theta));

  const double lever = (second.position - first.position).norm();
  const double mu = physics::attenuation(material, e_prime).total();
  const double travel = mu * std::exp(-mu * lever);

  const double likelihood = std::max(kn * travel, 1e-300);
  return -std::log(likelihood);
}

/// Per-thread buffers of the ordering search, grown to the largest
/// event seen and then reused, so an event costs no heap allocation.
struct SearchScratch {
  std::vector<const MeasuredHit*> candidates;
  std::vector<std::size_t> order;
  std::vector<std::uint8_t> used;
  std::vector<double> e_in;     ///< Energy entering position j.
  std::vector<double> cos_kin;  ///< Kinematic cosine of step j.
  std::vector<double> sigma_e;  ///< max(sigma_energy, 1e-4) per hit.
  // Per ordered pair (a, b), row-major a * n + b:
  std::vector<Vec3> unit;          ///< (b - a).normalized().
  std::vector<double> length;      ///< (b - a).norm().
  std::vector<double> transverse;  ///< sqrt(ms(a)^2 + ms(b)^2) / length.
};

/// Depth-first search over the orderings of the candidate hits,
/// choosing unused candidates in ascending index order, so complete
/// orderings arrive in std::next_permutation's lexicographic order.
///
/// Each complete ordering's score is the same expression, summed in the
/// same left-to-right order, as scoring it from scratch:
///   - the kinematic test of step j runs when hit j is placed; a
///     failure drops every ordering with that prefix;
///   - the chi^2 term of interior vertex j is added when hit j + 1 is
///     placed;
///   - with >= 3 hits, a prefix whose chi^2 is already >= the
///     second-best score is dropped: terms are >= 0, and both
///     best/second updates need a strict <, so no completion could
///     change either.  A NaN prefix never compares >=, so it is never
///     dropped.  (Two-hit scores are not chi^2 sums and can be < 0.)
/// Best and second scores, and the best ordering, are therefore the
/// ones the exhaustive enumeration finds.
class OrderingSearch {
 public:
  OrderingSearch(const detector::Material& material, SearchScratch& scratch,
                 std::size_t n, double e_total, double slack)
      : material_(material), s_(scratch), n_(n), e_total_(e_total),
        slack_(slack) {
    s_.order.resize(n);
    s_.used.assign(n, 0);
    s_.e_in.resize(n);
    s_.cos_kin.resize(n);
    if (n < 3) return;  // No interior vertex: the caches go unused.
    s_.sigma_e.resize(n);
    s_.unit.resize(n * n);
    s_.length.resize(n * n);
    s_.transverse.resize(n * n);
    for (std::size_t a = 0; a < n; ++a) {
      const MeasuredHit& ha = *s_.candidates[a];
      s_.sigma_e[a] = std::max(ha.sigma_energy, 1e-4);
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const MeasuredHit& hb = *s_.candidates[b];
        const Vec3 seg = hb.position - ha.position;
        const double l = seg.norm();
        s_.unit[a * n + b] = seg.normalized();
        s_.length[a * n + b] = l;
        s_.transverse[a * n + b] =
            std::sqrt(mean_sigma(ha) * mean_sigma(ha) +
                      mean_sigma(hb) * mean_sigma(hb)) / l;
      }
    }
  }

  void run() { extend(0, e_total_, 0.0); }

  std::optional<double> best;
  std::optional<double> second;
  std::size_t best_first = 0;   ///< Candidate index of the first hit.
  std::size_t best_second = 0;  ///< ... and of the second.
  std::uint64_t orderings_scored = 0;
  std::uint64_t prefixes_pruned = 0;

 private:
  /// Positions 0..j-1 are placed; `e_in` enters position j and `chi2`
  /// sums the vertices 1..j-2.
  void extend(std::size_t j, double e_in, double chi2) {
    for (std::size_t c = 0; c < n_; ++c) {
      if (s_.used[c]) continue;
      s_.order[j] = c;
      double sum = chi2;
      if (j >= 2) sum += vertex_term(j - 1, e_in);
      if (j + 1 == n_) {
        score(sum);
        continue;
      }
      if (n_ >= 3 && second && sum >= *second) {
        ++prefixes_pruned;
        continue;
      }
      const double e_out = e_in - s_.candidates[c]->energy;
      if (e_out <= 0.0) {
        ++prefixes_pruned;
        continue;
      }
      const double cos_kin = physics::compton_cos_theta(e_in, e_out);
      if (cos_kin < -1.0 - slack_ || cos_kin > 1.0 + slack_) {
        ++prefixes_pruned;
        continue;
      }
      s_.e_in[j] = e_in;
      s_.cos_kin[j] = cos_kin;
      s_.used[c] = 1;
      extend(j + 1, e_out, sum);
      s_.used[c] = 0;
    }
  }

  /// Interior vertex j: the geometric bend between segments
  /// (j-1 -> j) and (j -> j+1) against the kinematic angle of step j,
  /// whose outgoing energy is `e_out`.
  double vertex_term(std::size_t j, double e_out) const {
    const std::size_t a = s_.order[j - 1];
    const std::size_t b = s_.order[j];
    const std::size_t c = s_.order[j + 1];
    const std::size_t ab = a * n_ + b;
    const std::size_t bc = b * n_ + c;
    const double e_in = s_.e_in[j];
    const double cos_geo = s_.unit[ab].dot(s_.unit[bc]);

    const double s_energy_in =
        kElectronMassMeV / (e_in * e_in) * s_.sigma_e[a];
    const double s_energy_out =
        kElectronMassMeV / (e_out * e_out) * s_.sigma_e[b];
    // Uncertainty of the geometric cosine from the endpoint position
    // uncertainties; a zero-length segment leaves the bend undefined.
    double s_geo = 1.0;
    if (!(s_.length[ab] <= 0.0 || s_.length[bc] <= 0.0)) {
      const double t1 = s_.transverse[ab];
      const double t2 = s_.transverse[bc];
      s_geo = std::sqrt(t1 * t1 + t2 * t2);
    }
    const double sigma2 = s_energy_in * s_energy_in +
                          s_energy_out * s_energy_out + s_geo * s_geo;
    const double d = cos_geo - std::clamp(s_.cos_kin[j], -1.0, 1.0);
    return d * d / std::max(sigma2, 1e-6);
  }

  /// A complete ordering: >= 3 hits score their chi^2; two hits score
  /// their plausibility.
  void score(double chi2) {
    ++orderings_scored;
    const std::size_t first = s_.order[0];
    const std::size_t second_hit = s_.order[1];
    const double value =
        n_ >= 3 ? chi2
                : two_hit_score(material_, *s_.candidates[first],
                                *s_.candidates[second_hit], e_total_);
    if (!best || value < *best) {
      second = best;
      best = value;
      best_first = first;
      best_second = second_hit;
    } else if (!second || value < *second) {
      second = value;
    }
  }

  const detector::Material& material_;
  SearchScratch& s_;
  std::size_t n_;
  double e_total_;
  double slack_;
};

}  // namespace

std::optional<ComptonRing> EventReconstructor::reconstruct(
    const detector::MeasuredEvent& event, ReconstructionStats* stats) const {
  const auto count = [&stats](std::uint64_t ReconstructionStats::*field) {
    if (stats) ++(stats->*field);
  };

  if (event.hits.size() < 2) {
    count(&ReconstructionStats::too_few_hits);
    return std::nullopt;
  }

  double e_total = 0.0;
  double var_e_total = 0.0;
  for (const MeasuredHit& h : event.hits) {
    e_total += h.energy;
    var_e_total += h.sigma_energy * h.sigma_energy;
  }
  if (e_total < config_.min_total_energy ||
      e_total > config_.max_total_energy) {
    count(&ReconstructionStats::energy_cut);
    return std::nullopt;
  }

  // Candidate hits for ordering: all of them, or the most energetic
  // max_hits_for_ordering when the event is larger.
  thread_local SearchScratch scratch;
  std::vector<const MeasuredHit*>& candidates = scratch.candidates;
  candidates.clear();
  for (const MeasuredHit& h : event.hits) candidates.push_back(&h);
  if (static_cast<int>(candidates.size()) > config_.max_hits_for_ordering) {
    std::sort(candidates.begin(), candidates.end(),
              [](const MeasuredHit* a, const MeasuredHit* b) {
                return a->energy > b->energy;
              });
    candidates.resize(static_cast<std::size_t>(config_.max_hits_for_ordering));
  }
  const std::size_t n = candidates.size();

  // Validity of a step: energy must remain positive, and each non-final
  // hit must be a kinematically possible Compton scatter, within a
  // slack looser than the final eta cut (noise on the interior
  // energies is larger).
  OrderingSearch search(material_, scratch, n, e_total,
                        config_.eta_slack + 0.25);
  search.run();
  if (stats) {
    stats->orderings_scored += search.orderings_scored;
    stats->prefixes_pruned += search.prefixes_pruned;
  }

  if (!search.best) {
    count(&ReconstructionStats::eta_invalid);
    return std::nullopt;
  }
  const double best_score = *search.best;

  // Two-hit events carry no interior-vertex cross-check, so demand the
  // chosen ordering be decisively more likely than its reverse.
  if (n == 2 && search.second &&
      *search.second - best_score < config_.two_hit_margin) {
    count(&ReconstructionStats::ambiguous_order);
    return std::nullopt;
  }

  const MeasuredHit& first = *candidates[search.best_first];
  const MeasuredHit& second = *candidates[search.best_second];

  const double lever = (first.position - second.position).norm();
  if (lever < config_.min_lever_arm) {
    count(&ReconstructionStats::lever_arm_cut);
    return std::nullopt;
  }

  const double e1 = first.energy;
  if (e1 <= 0.0 || e1 >= e_total) {
    count(&ReconstructionStats::eta_invalid);
    return std::nullopt;
  }
  double eta = physics::ring_cosine(e_total, e1);
  if (eta < -1.0 - config_.eta_slack || eta > 1.0 + config_.eta_slack) {
    count(&ReconstructionStats::eta_invalid);
    return std::nullopt;
  }
  eta = std::clamp(eta, -1.0, 1.0);

  const bool multi_hit = n >= 3;
  if (multi_hit && best_score > config_.max_order_chi2) {
    count(&ReconstructionStats::chi2_cut);
    return std::nullopt;
  }

  ComptonRing ring;
  ring.axis = (first.position - second.position).normalized();
  ring.eta = eta;
  ring.e_total = e_total;
  ring.sigma_e_total = std::sqrt(var_e_total);
  ring.hit1 = RingHit{first.position, first.energy, first.sigma_position,
                      first.sigma_energy};
  ring.hit2 = RingHit{second.position, second.energy, second.sigma_position,
                      second.sigma_energy};
  ring.n_hits = static_cast<int>(event.hits.size());
  ring.order_chi2 = multi_hit ? best_score : 0.0;
  ring.origin = event.origin;
  ring.true_direction = event.true_direction;
  ring.d_eta = propagate_d_eta(ring.hit1, ring.hit2, e_total,
                               ring.sigma_e_total, eta, config_.min_d_eta);

  // What every consumer (localizer, NN features, training data) is
  // entitled to assume about an accepted ring.
  ADAPT_CHECK_UNIT_VECTOR(ring.axis, "ring.axis");
  ADAPT_CHECK_COSINE(ring.eta, "ring.eta");
  ADAPT_CHECK_FINITE(ring.e_total, "ring.e_total");
  ADAPT_ENSURE(ring.d_eta > 0.0 && std::isfinite(ring.d_eta),
               "accepted ring must carry a positive finite d_eta");

  count(&ReconstructionStats::accepted);
  return ring;
}

std::vector<ComptonRing> EventReconstructor::reconstruct_all(
    const std::vector<detector::MeasuredEvent>& events,
    ReconstructionStats* stats) const {
  // Chunked through core::parallel_for: each chunk fills its own ring
  // vector and stats slot, so iterations share nothing.  Rings are
  // concatenated and stats merged in chunk-index order, not thread
  // order, so the output is bit-identical for any thread count.  Most
  // events yield no ring, so this keeps ~1 in 20 events' worth of
  // rings instead of an optional slot per event.
  constexpr std::size_t kChunk = 16;
  const std::size_t n = events.size();
  const std::size_t n_chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::vector<ComptonRing>> chunk_rings(n_chunks);
  std::vector<ReconstructionStats> local_stats(n_chunks);

  core::parallel_for(n_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * kChunk;
    const std::size_t end = std::min(begin + kChunk, n);
    for (std::size_t i = begin; i < end; ++i) {
      if (auto ring = reconstruct(events[i], &local_stats[chunk]))
        chunk_rings[chunk].push_back(std::move(*ring));
    }
  });

  ReconstructionStats merged;
  for (const auto& s : local_stats) merged += s;
  std::vector<ComptonRing> rings;
  rings.reserve(merged.accepted);
  for (const auto& c : chunk_rings) rings.insert(rings.end(), c.begin(), c.end());
  if (stats) *stats += merged;

  // One add per field per window keeps the telemetry cost off the
  // per-event path; the counters mirror ReconstructionStats exactly.
  {
    namespace tm = core::telemetry;
    static tm::Counter& events_in = tm::counter("recon.events_in");
    static tm::Counter& rings_built = tm::counter("recon.rings_built");
    static tm::Counter& too_few = tm::counter("recon.rejected.too_few_hits");
    static tm::Counter& energy = tm::counter("recon.rejected.energy_cut");
    static tm::Counter& lever = tm::counter("recon.rejected.lever_arm_cut");
    static tm::Counter& eta = tm::counter("recon.rejected.eta_invalid");
    static tm::Counter& chi2 = tm::counter("recon.rejected.chi2_cut");
    static tm::Counter& ambiguous =
        tm::counter("recon.rejected.ambiguous_order");
    static tm::Counter& scored = tm::counter("recon.orderings_scored");
    static tm::Counter& pruned = tm::counter("recon.prefixes_pruned");
    events_in.add(events.size());
    rings_built.add(merged.accepted);
    too_few.add(merged.too_few_hits);
    energy.add(merged.energy_cut);
    lever.add(merged.lever_arm_cut);
    eta.add(merged.eta_invalid);
    chi2.add(merged.chi2_cut);
    ambiguous.add(merged.ambiguous_order);
    scored.add(merged.orderings_scored);
    pruned.add(merged.prefixes_pruned);
  }
  return rings;
}

}  // namespace adapt::recon
