#pragma once

/// \file ml_localizer.hpp
/// The paper's contribution: the ML-in-the-loop localization pipeline
/// (Fig. 6).
///
/// Because the networks take the source polar angle as an input, they
/// cannot run before localization — the angle is what localization
/// computes.  The pipeline therefore iterates:
///
///   1. localize once without ML (approximation + refinement) to get
///      an initial estimate s-hat;
///   2. up to `max_background_iterations` times (paper: 5): classify
///      every ring with the background network using s-hat's polar
///      angle, drop the flagged rings, and re-localize the survivors
///      starting from s-hat; stop early when the estimate converges;
///   3. replace the surviving rings' propagated d_eta with the dEta
///      network's predictions;
///   4. re-run localization from the last s-hat for the final answer.
///
/// The loop may be halted at any iteration and still yields the
/// current best estimate (the paper's accuracy/latency trade-off).
/// Per-stage wall-clock is collected into StageTimings when requested
/// — that instrumentation produces Tables I and II.

#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "loc/localizer.hpp"
#include "pipeline/models.hpp"
#include "recon/ring.hpp"

namespace adapt::pipeline {

struct MlLocalizerConfig {
  loc::LocalizerConfig localizer;
  int max_background_iterations = 5;  ///< Paper's cap.
  double convergence_angle_rad = 2e-3;  ///< ~0.11 degrees between
                                        ///< successive s-hat estimates.
  double deta_floor = 1e-4;
  double deta_cap = 2.0;
};

/// Wall-clock per pipeline stage, in milliseconds (Tables I and II
/// rows).  Reconstruction is timed by the caller (it happens before
/// localization); the rest accumulate inside run().
struct StageTimings {
  double reconstruction_ms = 0.0;
  double setup_ms = 0.0;            ///< Feature assembly + likelihood prep.
  double deta_inference_ms = 0.0;
  double background_inference_ms = 0.0;
  double approx_refine_ms = 0.0;
  double total_ms = 0.0;
};

struct MlLocalizationResult {
  core::Vec3 direction;        ///< Final source estimate.
  bool valid = false;
  int background_iterations = 0;  ///< Iterations of the Fig. 6 loop.
  bool loop_converged = false;
  std::size_t rings_in = 0;     ///< Rings entering localization.
  std::size_t rings_kept = 0;   ///< Survivors of background rejection.
  loc::LocalizationResult base;  ///< The no-ML initial localization.
};

class MlLocalizer {
 public:
  explicit MlLocalizer(const MlLocalizerConfig& config = {});

  /// Run the full Fig. 6 pipeline.  Either network in `models` may be
  /// null: a null background net skips rejection (step 2), a null dEta
  /// net skips the d_eta update (step 3) — giving the paper's "without
  /// ML" baseline when both are null.  The dEta update is one
  /// DEtaNet::predict over every survivor at the final polar guess.
  MlLocalizationResult run(std::span<const recon::ComptonRing> rings,
                           const Models& models, core::Rng& rng,
                           StageTimings* timings = nullptr) const;

  /// Convenience overload over raw network pointers.
  MlLocalizationResult run(std::span<const recon::ComptonRing> rings,
                           BackgroundNet* background_net, DEtaNet* deta_net,
                           core::Rng& rng,
                           StageTimings* timings = nullptr) const;

  const MlLocalizerConfig& config() const { return config_; }

 private:
  MlLocalizerConfig config_;
};

}  // namespace adapt::pipeline
