// Bit-identity gates for the hit-ordering search of
// EventReconstructor::reconstruct:
//   - a seeded digest over every ring field and every outcome counter
//     of reconstruct_all on simulated exposures, recorded before the
//     depth-first search replaced the permutation loop;
//   - the old std::next_permutation + ordering_score enumeration, kept
//     here as an oracle, compared bit for bit on hand-built events.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <ostream>
#include <vector>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "eval/trial.hpp"
#include "physics/compton.hpp"
#include "physics/cross_sections.hpp"
#include "recon/error_propagation.hpp"
#include "recon/event_reconstruction.hpp"
#include "sim/exposure.hpp"

namespace adapt::recon {
namespace {

using core::Vec3;
using detector::MeasuredEvent;
using detector::MeasuredHit;

// --- digests ----------------------------------------------------------

template <typename T>
void fold(core::Fnv1a64& h, const T& v) {
  h.update(&v, sizeof v);
}

void fold(core::Fnv1a64& h, const Vec3& v) {
  fold(h, v.x);
  fold(h, v.y);
  fold(h, v.z);
}

void fold(core::Fnv1a64& h, const RingHit& hit) {
  fold(h, hit.position);
  fold(h, hit.energy);
  fold(h, hit.sigma_position);
  fold(h, hit.sigma_energy);
}

void fold(core::Fnv1a64& h, const ComptonRing& r) {
  fold(h, r.axis);
  fold(h, r.eta);
  fold(h, r.d_eta);
  fold(h, r.e_total);
  fold(h, r.sigma_e_total);
  fold(h, r.hit1);
  fold(h, r.hit2);
  fold(h, r.n_hits);
  fold(h, r.order_chi2);
  fold(h, static_cast<int>(r.origin));
  fold(h, r.true_direction);
}

/// The seven outcome buckets; the search's work counters are pinned on
/// their own below, because they describe effort, not output.
void fold(core::Fnv1a64& h, const ReconstructionStats& s) {
  fold(h, s.accepted);
  fold(h, s.too_few_hits);
  fold(h, s.energy_cut);
  fold(h, s.lever_arm_cut);
  fold(h, s.eta_invalid);
  fold(h, s.chi2_cut);
  fold(h, s.ambiguous_order);
}

std::uint64_t ring_digest(const std::optional<ComptonRing>& ring) {
  core::Fnv1a64 h;
  fold(h, ring.has_value());
  if (ring) fold(h, *ring);
  return h.digest();
}

// --- the old enumeration, as an oracle --------------------------------

double mean_sigma(const MeasuredHit& h) {
  return (h.sigma_position.x + h.sigma_position.y + h.sigma_position.z) / 3.0;
}

double geometric_cos_sigma(const MeasuredHit& a, const MeasuredHit& b,
                           const MeasuredHit& c) {
  const double l1 = (b.position - a.position).norm();
  const double l2 = (c.position - b.position).norm();
  if (l1 <= 0.0 || l2 <= 0.0) return 1.0;
  const double t1 = std::sqrt(mean_sigma(a) * mean_sigma(a) +
                              mean_sigma(b) * mean_sigma(b)) / l1;
  const double t2 = std::sqrt(mean_sigma(b) * mean_sigma(b) +
                              mean_sigma(c) * mean_sigma(c)) / l2;
  return std::sqrt(t1 * t1 + t2 * t2);
}

/// EventReconstructor::reconstruct as it was before the depth-first
/// search: every permutation through std::next_permutation, each scored
/// from scratch.
class OracleReconstructor {
 public:
  OracleReconstructor(const detector::Material& material,
                      const ReconstructionConfig& config)
      : material_(material), config_(config) {}

  std::optional<ComptonRing> reconstruct(const MeasuredEvent& event,
                                         ReconstructionStats* stats) const {
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
    std::vector<const MeasuredHit*> candidates;
    for (const MeasuredHit& h : event.hits) candidates.push_back(&h);
    if (static_cast<int>(candidates.size()) > config_.max_hits_for_ordering) {
      std::sort(candidates.begin(), candidates.end(),
                [](const MeasuredHit* a, const MeasuredHit* b) {
                  return a->energy > b->energy;
                });
      candidates.resize(
          static_cast<std::size_t>(config_.max_hits_for_ordering));
    }
    std::vector<std::size_t> index(candidates.size());
    std::iota(index.begin(), index.end(), 0u);
    std::optional<double> best_score;
    std::optional<double> second_score;
    std::vector<const MeasuredHit*> best_order;
    std::vector<const MeasuredHit*> order(candidates.size());
    do {
      for (std::size_t i = 0; i < index.size(); ++i)
        order[i] = candidates[index[i]];
      const auto score = ordering_score(order, e_total);
      if (!score) continue;
      if (!best_score || *score < *best_score) {
        second_score = best_score;
        best_score = score;
        best_order = order;
      } else if (!second_score || *score < *second_score) {
        second_score = score;
      }
    } while (std::next_permutation(index.begin(), index.end()));

    if (!best_score) {
      count(&ReconstructionStats::eta_invalid);
      return std::nullopt;
    }
    if (best_order.size() == 2 && second_score &&
        *second_score - *best_score < config_.two_hit_margin) {
      count(&ReconstructionStats::ambiguous_order);
      return std::nullopt;
    }
    const MeasuredHit& first = *best_order[0];
    const MeasuredHit& second = *best_order[1];
    if ((first.position - second.position).norm() < config_.min_lever_arm) {
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
    const bool multi_hit = best_order.size() >= 3;
    if (multi_hit && *best_score > config_.max_order_chi2) {
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
    ring.hit2 = RingHit{second.position, second.energy,
                        second.sigma_position, second.sigma_energy};
    ring.n_hits = static_cast<int>(event.hits.size());
    ring.order_chi2 = multi_hit ? *best_score : 0.0;
    ring.origin = event.origin;
    ring.true_direction = event.true_direction;
    ring.d_eta = propagate_d_eta(ring.hit1, ring.hit2, e_total,
                                 ring.sigma_e_total, eta, config_.min_d_eta);
    count(&ReconstructionStats::accepted);
    return ring;
  }

 private:
  std::optional<double> ordering_score(
      const std::vector<const MeasuredHit*>& order, double e_total) const {
    const std::size_t n = order.size();
    const double slack = config_.eta_slack + 0.25;
    double e_in = e_total;
    double chi2 = 0.0;
    int n_vertices = 0;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      const double e_out = e_in - order[j]->energy;
      if (e_out <= 0.0) return std::nullopt;
      const double cos_kin = physics::compton_cos_theta(e_in, e_out);
      if (cos_kin < -1.0 - slack || cos_kin > 1.0 + slack) return std::nullopt;
      if (j >= 1) {
        const Vec3 seg_in =
            (order[j]->position - order[j - 1]->position).normalized();
        const Vec3 seg_out =
            (order[j + 1]->position - order[j]->position).normalized();
        const double cos_geo = seg_in.dot(seg_out);
        const double s_energy_in =
            core::kElectronMassMeV / (e_in * e_in) *
            std::max(order[j - 1]->sigma_energy, 1e-4);
        const double s_energy_out = core::kElectronMassMeV /
                                    (e_out * e_out) *
                                    std::max(order[j]->sigma_energy, 1e-4);
        const double s_geo =
            geometric_cos_sigma(*order[j - 1], *order[j], *order[j + 1]);
        const double sigma2 = s_energy_in * s_energy_in +
                              s_energy_out * s_energy_out + s_geo * s_geo;
        const double d = cos_geo - std::clamp(cos_kin, -1.0, 1.0);
        chi2 += d * d / std::max(sigma2, 1e-6);
        ++n_vertices;
      }
      e_in = e_out;
    }
    if (n_vertices > 0) return chi2;
    const double e1 = order[0]->energy;
    const double e_prime = e_total - e1;
    const double cos_theta =
        std::clamp(physics::ring_cosine(e_total, e1), -1.0, 1.0);
    const double r =
        physics::compton_scattered_energy(e_total, cos_theta) / e_total;
    const double kn = r * r * (r + 1.0 / r - (1.0 - cos_theta * cos_theta));
    const double lever = (order[1]->position - order[0]->position).norm();
    const double mu = physics::attenuation(material_, e_prime).total();
    const double travel = mu * std::exp(-mu * lever);
    return -std::log(std::max(kn * travel, 1e-300));
  }

  detector::Material material_;
  ReconstructionConfig config_;
};

// --- hand-built events ------------------------------------------------

MeasuredHit make_hit(const Vec3& position, double energy, core::Rng& rng) {
  MeasuredHit h;
  h.position = position;
  h.energy = energy;
  h.sigma_energy = energy * rng.uniform(0.005, 0.05);
  const double sp = rng.uniform(0.02, 0.3);
  h.sigma_position = {sp, sp * rng.uniform(0.5, 1.5), sp};
  return h;
}

/// A Compton chain of `n` hits (n - 1 scatters, then absorption) with
/// noisy energies and positions, reported in shuffled order.
MeasuredEvent compton_chain(int n, core::Rng& rng) {
  MeasuredEvent ev;
  double e = rng.uniform(0.2, 6.0);
  Vec3 p{rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 0)};
  Vec3 d = Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), -1.0}
               .normalized();
  for (int k = 0; k < n; ++k) {
    double deposit = e;
    if (k + 1 < n) {
      const double c = rng.uniform(-1.0, 1.0);
      const double e_out = physics::compton_scattered_energy(e, c);
      deposit = e - e_out;
      e = e_out;
      d = core::rotate_about_axis(d, std::acos(c),
                                  rng.uniform(0.0, core::kTwoPi));
    }
    ev.hits.push_back(
        make_hit(p, deposit * (1.0 + rng.normal(0.0, 0.03)), rng));
    p = p + d * rng.uniform(0.5, 12.0) +
        Vec3{rng.normal(0, 0.1), rng.normal(0, 0.1), rng.normal(0, 0.1)};
  }
  for (std::size_t i = ev.hits.size(); i > 1; --i)
    std::swap(ev.hits[i - 1], ev.hits[rng.uniform_index(i)]);
  ev.true_direction = {0, 0, -1};
  return ev;
}

/// `n` hits at random places with random energies: mostly
/// kinematically impossible orderings.
MeasuredEvent random_hits(int n, core::Rng& rng) {
  MeasuredEvent ev;
  for (int k = 0; k < n; ++k)
    ev.hits.push_back(make_hit(
        {rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 0)},
        rng.uniform(0.01, 1.5), rng));
  return ev;
}

std::vector<MeasuredEvent> hand_built_events(int max_hits, int cap) {
  core::Rng rng(2024);
  std::vector<MeasuredEvent> events;
  for (int n = 2; n <= max_hits; ++n) {
    const int reps = n <= 5 ? 400 : (n == 6 ? 60 : 12);
    for (int i = 0; i < reps; ++i) {
      events.push_back(compton_chain(n, rng));
      if (i % 4 == 0) events.push_back(random_hits(n, rng));
    }
    // Coincident hits: a zero-length segment (s_geo = 1, and the
    // segment normalizes to +z).
    for (int i = 0; i < reps / 8 + 2; ++i) {
      MeasuredEvent ev = compton_chain(n, rng);
      ev.hits[1].position = ev.hits[0].position;
      events.push_back(ev);
    }
    // Tied scores: two identical hits make pairs of orderings score
    // exactly alike; a fully duplicated event ties every ordering.
    for (int i = 0; i < reps / 8 + 2; ++i) {
      MeasuredEvent ev = compton_chain(n, rng);
      ev.hits[n - 1] = ev.hits[0];
      events.push_back(ev);
      MeasuredEvent same = ev;
      for (MeasuredHit& h : same.hits) h = ev.hits[0];
      events.push_back(same);
    }
    // Every first scatter kinematically impossible: n equal small
    // deposits whose first step implies cos(theta) << -1.
    {
      MeasuredEvent ev = random_hits(n, rng);
      const double d = 0.09 / n;
      for (MeasuredHit& h : ev.hits) h.energy = d;
      events.push_back(ev);
    }
    // A zero and a negative deposit (e_out <= 0 / cos_kin > 1 paths).
    // Not when two hits are ordered: there the 2-hit score's
    // ring_cosine rejects a non-positive first deposit by contract, in
    // both implementations.
    if (std::min(n, cap) >= 3) {
      MeasuredEvent ev = compton_chain(n, rng);
      ev.hits[0].energy = 0.0;
      events.push_back(ev);
      ev.hits[n - 1].energy = -0.01;
      events.push_back(ev);
    }
  }
  return events;
}

struct OracleCase {
  int max_hits_for_ordering;
  int max_event_hits;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "max_hits=" << c.max_hits_for_ordering
      << ",event_hits=2-" << c.max_event_hits;
}

class OrderingOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OrderingOracle, SearchMatchesPermutationLoopBitForBit) {
  const OracleCase c = GetParam();
  ReconstructionConfig config;
  config.max_hits_for_ordering = c.max_hits_for_ordering;
  const detector::Material material = detector::Material::csi();
  const EventReconstructor search(material, config);
  const OracleReconstructor oracle(material, config);

  const std::vector<MeasuredEvent> events = hand_built_events(c.max_event_hits, c.max_hits_for_ordering);
  ReconstructionStats got_stats;
  ReconstructionStats want_stats;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto got = search.reconstruct(events[i], &got_stats);
    const auto want = oracle.reconstruct(events[i], &want_stats);
    ASSERT_EQ(ring_digest(got), ring_digest(want))
        << "event " << i << " (" << events[i].hits.size() << " hits)";
    if (got) ++accepted;
  }
  core::Fnv1a64 got_h;
  core::Fnv1a64 want_h;
  fold(got_h, got_stats);
  fold(want_h, want_stats);
  EXPECT_EQ(got_h.digest(), want_h.digest());
  // The set must exercise both outcomes, and every rejection path the
  // search can influence.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(want_stats.eta_invalid, 0u);
  EXPECT_GT(want_stats.ambiguous_order, 0u);
  if (c.max_hits_for_ordering >= 3) {
    EXPECT_GT(want_stats.chi2_cut, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, OrderingOracle,
                         ::testing::Values(OracleCase{2, 5}, OracleCase{3, 5},
                                           OracleCase{5, 6}, OracleCase{7, 7}));

// --- seeded exposures -------------------------------------------------

struct Exposures {
  eval::TrialSetup setup;
  std::uint64_t seed;
};

/// Reconstruct one simulated exposure with reconstruct_all and fold
/// every ring and every outcome counter; cross-check against per-event
/// reconstruct().
std::uint64_t exposure_digest(const Exposures& e,
                              ReconstructionStats* out = nullptr) {
  ReconstructionStats stats;
  const detector::Geometry geometry(e.setup.geometry);
  const sim::ExposureSimulator simulator(geometry, e.setup.material,
                                         e.setup.readout);
  core::Rng rng(e.seed);
  const sim::Exposure exposure = simulator.simulate(
      e.setup.grb, e.setup.background, rng, e.setup.pileup);
  const EventReconstructor reconstructor(e.setup.material,
                                         e.setup.reconstruction);
  const std::vector<ComptonRing> rings =
      reconstructor.reconstruct_all(exposure.events, &stats);

  core::Fnv1a64 one_by_one;
  for (const MeasuredEvent& ev : exposure.events)
    if (const auto ring = reconstructor.reconstruct(ev)) fold(one_by_one, *ring);
  core::Fnv1a64 all;
  for (const ComptonRing& r : rings) fold(all, r);
  EXPECT_EQ(all.digest(), one_by_one.digest());

  fold(all, static_cast<std::uint64_t>(exposure.events.size()));
  fold(all, stats);
  if (out) *out = stats;
  return all.digest();
}

eval::TrialSetup table12_setup() {
  eval::TrialSetup s;  // Tables I/II: 1 MeV/cm^2, normal incidence.
  s.grb.fluence = 1.0;
  s.grb.polar_deg = 0.0;
  return s;
}

TEST(ReconstructionDigest, Table12Exposures) {
  EXPECT_EQ(exposure_digest({table12_setup(), 0}), 0x4da57171abe4708eULL);
  EXPECT_EQ(exposure_digest({table12_setup(), 1}), 0x70de72eece5b369bULL);
}

TEST(ReconstructionDigest, OffAxisExposure) {
  eval::TrialSetup s = table12_setup();
  s.grb.polar_deg = 55.0;
  s.grb.azimuth_deg = 130.0;
  EXPECT_EQ(exposure_digest({s, 11}), 0x79b8d07ab4672661ULL);
}

TEST(ReconstructionDigest, PileupExposure) {
  eval::TrialSetup s = table12_setup();
  s.pileup.detection_latency_s = 20e-6;
  EXPECT_EQ(exposure_digest({s, 12}), 0x4059a25cc8c0b7e4ULL);
}

// --- exact work counts ------------------------------------------------

/// Orderings the exhaustive enumeration scores: n! per event that
/// reaches the search, n = min(hits, max_hits_for_ordering).
std::uint64_t exhaustive_orderings(const std::vector<MeasuredEvent>& events,
                                   const ReconstructionConfig& config) {
  std::uint64_t total = 0;
  for (const MeasuredEvent& ev : events) {
    if (ev.hits.size() < 2) continue;
    double e_total = 0.0;
    for (const MeasuredHit& h : ev.hits) e_total += h.energy;
    if (e_total < config.min_total_energy || e_total > config.max_total_energy)
      continue;
    const std::size_t n = std::min<std::size_t>(
        ev.hits.size(), static_cast<std::size_t>(config.max_hits_for_ordering));
    std::uint64_t f = 1;
    for (std::size_t k = 2; k <= n; ++k) f *= k;
    total += f;
  }
  return total;
}

// The machine-independent proof that the search prunes: exact counts
// of scored orderings and dropped prefixes on the seeded Table I/II
// exposure and the pileup exposure, in ReconstructionStats and in the
// recon.* telemetry counters alike.
TEST(ReconstructionCounts, SearchWorkIsPinned) {
  namespace tm = core::telemetry;
  const bool was_enabled = tm::enabled();
  tm::set_enabled(true);
  tm::Counter& scored = tm::counter("recon.orderings_scored");
  tm::Counter& pruned = tm::counter("recon.prefixes_pruned");

  eval::TrialSetup pileup = table12_setup();
  pileup.pileup.detection_latency_s = 20e-6;
  struct Case {
    Exposures exposures;
    std::uint64_t exhaustive, scored, pruned;
  };
  const Case cases[] = {{{table12_setup(), 0}, 9332, 4581, 4064},
                        {{pileup, 12}, 39440, 10208, 21598}};
  for (const Case& c : cases) {
    const detector::Geometry geometry(c.exposures.setup.geometry);
    const sim::ExposureSimulator simulator(
        geometry, c.exposures.setup.material, c.exposures.setup.readout);
    core::Rng rng(c.exposures.seed);
    const sim::Exposure exposure =
        simulator.simulate(c.exposures.setup.grb, c.exposures.setup.background,
                           rng, c.exposures.setup.pileup);
    const EventReconstructor reconstructor(c.exposures.setup.material,
                                           c.exposures.setup.reconstruction);
    const std::uint64_t scored0 = scored.value();
    const std::uint64_t pruned0 = pruned.value();
    ReconstructionStats stats;
    reconstructor.reconstruct_all(exposure.events, &stats);
    EXPECT_EQ(scored.value() - scored0, stats.orderings_scored);
    EXPECT_EQ(pruned.value() - pruned0, stats.prefixes_pruned);
    EXPECT_EQ(exhaustive_orderings(exposure.events,
                                   c.exposures.setup.reconstruction),
              c.exhaustive);
    EXPECT_EQ(stats.orderings_scored, c.scored);
    EXPECT_EQ(stats.prefixes_pruned, c.pruned);
  }
  tm::set_enabled(was_enabled);
}

}  // namespace
}  // namespace adapt::recon
