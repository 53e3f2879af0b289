#include "pipeline/ml_localizer.hpp"

#include "core/require.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::pipeline {

namespace {

namespace tm = core::telemetry;

/// Stage timers shared by every MlLocalizer.  Each ScopedTimer scope
/// is ONE pass through the stage, so the telemetry histograms hold
/// per-pass samples (what Tables I/II report) while the StageTimings
/// slots keep accumulating per-trial totals for existing callers.
struct StageMetrics {
  tm::Histogram& setup_ms = tm::histogram("pipeline.setup_ms");
  tm::Histogram& bkg_nn_ms = tm::histogram("pipeline.bkg_nn_ms");
  tm::Histogram& deta_nn_ms = tm::histogram("pipeline.deta_nn_ms");
  tm::Histogram& approx_refine_ms = tm::histogram("pipeline.approx_refine_ms");
  tm::Histogram& total_ms = tm::histogram("pipeline.total_ms");
  tm::Histogram& bkg_survivors = tm::histogram("pipeline.bkg_survivors");
  tm::Counter& bkg_iterations = tm::counter("pipeline.bkg_iterations");
  tm::Counter& bkg_rings_rejected =
      tm::counter("pipeline.rings_rejected.background_net");
  tm::Counter& bkg_fallback = tm::counter("pipeline.bkg_fallback_all_rings");
  tm::Counter& deta_reassigned = tm::counter("pipeline.deta_reassigned");
};

StageMetrics& metrics() {
  static StageMetrics m;
  return m;
}

}  // namespace

MlLocalizer::MlLocalizer(const MlLocalizerConfig& config) : config_(config) {
  ADAPT_REQUIRE(config.max_background_iterations >= 0,
                "negative iteration cap");
  ADAPT_REQUIRE(config.convergence_angle_rad > 0.0,
                "convergence angle must be positive");
}

MlLocalizationResult MlLocalizer::run(std::span<const recon::ComptonRing> rings,
                                      BackgroundNet* background_net,
                                      DEtaNet* deta_net, core::Rng& rng,
                                      StageTimings* timings) const {
  return run(rings, Models{background_net, deta_net}, rng, timings);
}

MlLocalizationResult MlLocalizer::run(std::span<const recon::ComptonRing> rings,
                                      const Models& models, core::Rng& rng,
                                      StageTimings* timings) const {
  BackgroundNet* background_net = models.background;
  StageMetrics& m = metrics();
  // The timer's destructor fires on every exit path, before control
  // returns to the caller, so timings->total_ms is complete when run()
  // returns — same contract as the old explicit ms_since() calls.
  const tm::ScopedTimer total_timer(m.total_ms,
                                    timings ? &timings->total_ms : nullptr);
  MlLocalizationResult result;
  result.rings_in = rings.size();
  result.rings_kept = rings.size();

  const loc::Localizer localizer(config_.localizer);

  // --- Setup: copy the ring set we will edit (d_eta updates and
  // background removal operate on the working copy) and precompute the
  // classifier's polar-independent feature columns once — the loop
  // re-classifies every iteration but only the polar guess changes.
  std::vector<recon::ComptonRing> working;
  nn::Tensor prepared_features;
  {
    const tm::ScopedTimer t(m.setup_ms, timings ? &timings->setup_ms : nullptr);
    working.assign(rings.begin(), rings.end());
    if (background_net != nullptr) {
      prepared_features = background_net->prepare_features(working);
    }
  }

  // --- Initial (no-ML) localization: multi-start approximation plus
  // robust refinement.
  {
    const tm::ScopedTimer t(m.approx_refine_ms,
                            timings ? &timings->approx_refine_ms : nullptr);
    result.base = localizer.localize(working, rng);
  }
  if (!result.base.valid) {
    return result;
  }
  core::Vec3 s_hat = result.base.direction;
  result.direction = s_hat;
  result.valid = true;

  // --- Step 2 (Fig. 6): iterate background rejection at the current
  // polar angle against re-localization.  Classification always runs
  // on the full input set so rings wrongly dropped by an earlier, less
  // accurate estimate can be recovered.  Per the paper, this iteration
  // removes background more effectively than a single application of
  // the model at the first estimate of s-hat.
  std::vector<recon::ComptonRing> kept = working;
  if (background_net != nullptr) {
    for (int iter = 0; iter < config_.max_background_iterations; ++iter) {
      result.background_iterations = iter + 1;
      m.bkg_iterations.add();
      const double polar_deg = core::rad_to_deg(core::polar_of(s_hat));

      std::vector<std::uint8_t> is_background;
      {
        const tm::ScopedTimer t(
            m.bkg_nn_ms,
            timings ? &timings->background_inference_ms : nullptr);
        is_background =
            background_net->classify_prepared(prepared_features, polar_deg);
      }
      kept.clear();
      for (std::size_t i = 0; i < working.size(); ++i)
        if (!is_background[i]) kept.push_back(working[i]);
      m.bkg_survivors.record(static_cast<double>(kept.size()));
      if (kept.size() < 2) {
        kept = working;  // Degenerate rejection: fall back to all rings.
        m.bkg_fallback.add();
        break;
      }

      // Full re-localization (multi-start approximation + refinement)
      // on the surviving rings: when the pre-rejection estimate was
      // captured by a background mode, refinement alone cannot escape
      // it, but with the background removed the approximation re-finds
      // the true mode.
      loc::LocalizationResult step;
      {
        const tm::ScopedTimer t(m.approx_refine_ms,
                                timings ? &timings->approx_refine_ms : nullptr);
        step = localizer.localize(kept, rng);
      }
      if (!step.valid) break;

      const double moved = core::angle_between(s_hat, step.direction);
      s_hat = step.direction;
      result.direction = s_hat;
      if (moved < config_.convergence_angle_rad) {
        result.loop_converged = true;
        break;
      }
    }
  }
  result.rings_kept = kept.size();
  m.bkg_rings_rejected.add(result.rings_in - result.rings_kept);

  // --- Step 3: replace the survivors' propagated d_eta with the dEta
  // network's estimate at the final polar angle (one feature Tensor,
  // one forward over every survivor).
  if (models.deta != nullptr && !kept.empty()) {
    const double polar_deg = core::rad_to_deg(core::polar_of(s_hat));
    std::vector<double> d_eta;
    {
      const tm::ScopedTimer t(m.deta_nn_ms,
                              timings ? &timings->deta_inference_ms : nullptr);
      d_eta = models.deta->predict(kept, polar_deg, config_.deta_floor,
                                   config_.deta_cap);
    }
    for (std::size_t i = 0; i < kept.size(); ++i) kept[i].d_eta = d_eta[i];
    m.deta_reassigned.add(kept.size());
  }

  // --- Step 4: final localization from the last estimate.
  {
    const tm::ScopedTimer t(m.approx_refine_ms,
                            timings ? &timings->approx_refine_ms : nullptr);
    const loc::LocalizationResult final_fit = localizer.refine(kept, s_hat);
    if (final_fit.valid) {
      result.direction = final_fit.direction;
    }
  }

  return result;
}

}  // namespace adapt::pipeline
