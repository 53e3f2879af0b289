#pragma once

/// \file event_reconstruction.hpp
/// Event reconstruction: measured hits -> ordered trajectory ->
/// Compton ring (paper Sec. II-B; method after Boggs & Jean [22]).
///
/// The reconstruction must decide which measured hit came first — the
/// readout has no timing at the sub-nanosecond scale of a photon
/// crossing.  For events with >= 3 hits, the intermediate scatters
/// over-determine the trajectory: the geometric angle at each interior
/// hit must match the Compton-kinematic angle implied by the running
/// energies, giving a chi^2 over hit permutations.  For 2-hit events
/// only kinematic validity and a likelihood heuristic are available,
/// so mis-ordering happens at a realistic rate — one of the error
/// sources the paper's dEta network learns to flag.

#include <optional>
#include <vector>

#include "detector/hit.hpp"
#include "detector/material.hpp"
#include "recon/ring.hpp"

namespace adapt::recon {

struct ReconstructionConfig {
  /// Quality filters applied before a ring is released to
  /// localization (the paper's "pre-localization stages").
  double min_total_energy = 0.080;   ///< [MeV].
  double max_total_energy = 30.0;    ///< [MeV].
  double min_lever_arm = 2.5;        ///< |r1 - r2| floor [cm]: short
                                     ///< levers give hopeless axis
                                     ///< resolution at the fiber pitch.
  double two_hit_margin = 0.4;       ///< A 2-hit event is kept only
                                     ///< when its best ordering beats
                                     ///< the reverse by this much in
                                     ///< negative log-likelihood;
                                     ///< ambiguous events are culled.
  double eta_slack = 0.05;           ///< Accept |eta| up to 1 + slack
                                     ///< (then clamp): measurement noise
                                     ///< pushes real rings past +-1.
  double max_order_chi2 = 12.0;      ///< Ordering-consistency cut for
                                     ///< events with >= 3 hits.
  int max_hits_for_ordering = 5;     ///< Permutation cap; larger events
                                     ///< keep only the most energetic
                                     ///< hits for ordering.
  double min_d_eta = 1e-3;           ///< Floor for propagated d_eta.
};

/// Outcome counters, useful for acceptance studies and tests, plus the
/// ordering search's work counters.
struct ReconstructionStats {
  std::uint64_t accepted = 0;
  std::uint64_t too_few_hits = 0;
  std::uint64_t energy_cut = 0;
  std::uint64_t lever_arm_cut = 0;
  std::uint64_t eta_invalid = 0;
  std::uint64_t chi2_cut = 0;
  std::uint64_t ambiguous_order = 0;

  /// Complete hit orderings the search scored, and partial orderings
  /// it dropped (kinematically impossible, or already no better than
  /// the second-best score).  Work, not outcomes: not in total().
  std::uint64_t orderings_scored = 0;
  std::uint64_t prefixes_pruned = 0;

  /// Events counted in the outcome buckets.
  std::uint64_t total() const {
    return accepted + too_few_hits + energy_cut + lever_arm_cut +
           eta_invalid + chi2_cut + ambiguous_order;
  }

  ReconstructionStats& operator+=(const ReconstructionStats& o) {
    accepted += o.accepted;
    too_few_hits += o.too_few_hits;
    energy_cut += o.energy_cut;
    lever_arm_cut += o.lever_arm_cut;
    eta_invalid += o.eta_invalid;
    chi2_cut += o.chi2_cut;
    ambiguous_order += o.ambiguous_order;
    orderings_scored += o.orderings_scored;
    prefixes_pruned += o.prefixes_pruned;
    return *this;
  }
};

class EventReconstructor {
 public:
  explicit EventReconstructor(const detector::Material& material,
                              const ReconstructionConfig& config = {});

  /// Reconstruct one event into a Compton ring.  Returns nullopt when
  /// the event fails the quality filters; `stats`, when provided,
  /// counts why.
  std::optional<ComptonRing> reconstruct(const detector::MeasuredEvent& event,
                                         ReconstructionStats* stats = nullptr) const;

  /// Reconstruct a whole exposure (OpenMP-parallel across events, as
  /// the paper parallelizes its pipeline stages).
  std::vector<ComptonRing> reconstruct_all(
      const std::vector<detector::MeasuredEvent>& events,
      ReconstructionStats* stats = nullptr) const;

  const ReconstructionConfig& config() const { return config_; }

 private:
  detector::Material material_;
  ReconstructionConfig config_;
};

}  // namespace adapt::recon
