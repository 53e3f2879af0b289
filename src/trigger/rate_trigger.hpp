#pragma once

/// \file rate_trigger.hpp
/// On-board burst detection: a multi-timescale Poisson rate trigger.
///
/// The paper's pipeline starts from a detected burst window;
/// upstream of it, ADAPT must first notice that a burst is happening.
/// This module implements the standard GRB-monitor approach (as flown
/// on Fermi-GBM and planned for APT): slide windows of several
/// timescales across the event-time stream, compare the count in each
/// window against the expected background count, and trigger when the
/// Poisson significance exceeds a threshold on any timescale.
///
/// The trigger feeds localization: its best window selects the events
/// handed to reconstruction (see examples/burst_alert.cpp for the full
/// alert chain).

#include <span>
#include <vector>

#include "detector/hit.hpp"

namespace adapt::trigger {

struct TriggerConfig {
  /// Window timescales to scan [s] (short-GRB regime).
  std::vector<double> window_sizes_s = {0.016, 0.032, 0.064, 0.128,
                                        0.256, 0.512};
  /// Window stride as a fraction of the window size.
  double stride_fraction = 0.25;
  /// Detection threshold [Gaussian sigma].
  double threshold_sigma = 5.0;
  /// Expected background *detected-event* rate [1/s].  On orbit this
  /// is estimated from pre-burst data; the simulation calibrates it
  /// from a background-only exposure.
  double background_rate_hz = 3000.0;
};

struct TriggerResult {
  bool triggered = false;
  double significance_sigma = 0.0;  ///< Best over all windows.
  double t_start = 0.0;             ///< Best window [s].
  double t_end = 0.0;
  std::size_t counts = 0;           ///< Events in the best window.
  double expected = 0.0;            ///< Background expectation there.
};

/// One merged over-threshold episode from scan_all(): the union of all
/// triggering windows (any timescale) that overlap each other, carrying
/// the most significant single window inside it.  A multi-burst or
/// hostile-sky exposure produces one interval per distinct rate excess
/// — the unit the scenario matrix scores purity/efficiency on.
struct TriggerInterval {
  double t_start = 0.0;             ///< Merged episode bounds [s].
  double t_end = 0.0;
  double significance_sigma = 0.0;  ///< Best window inside the episode.
  std::size_t counts = 0;           ///< Events in that best window.
  double expected = 0.0;            ///< Background expectation there.
};

class RateTrigger {
 public:
  explicit RateTrigger(const TriggerConfig& config = {});

  /// Scan sorted-or-unsorted event times over [0, exposure_s].
  /// Non-finite timestamps are dropped and counted under
  /// `trigger.times_rejected.non_finite`.
  TriggerResult scan(std::vector<double> event_times,
                     double exposure_s) const;

  /// Convenience overload extracting times from measured events.
  TriggerResult scan(std::span<const detector::MeasuredEvent> events,
                     double exposure_s) const;

  /// Every over-threshold episode in the exposure, not just the best
  /// one: all windows (all timescales) whose significance clears the
  /// threshold, merged when they overlap, ordered by start time.
  /// Non-finite timestamps are dropped and counted exactly as in scan().
  std::vector<TriggerInterval> scan_all(std::vector<double> event_times,
                                        double exposure_s) const;

  std::vector<TriggerInterval> scan_all(
      std::span<const detector::MeasuredEvent> events,
      double exposure_s) const;

  /// Estimate the background detected-event rate from a (burst-free)
  /// exposure — what the flight software maintains as a running
  /// average.
  static double estimate_background_rate(
      std::span<const detector::MeasuredEvent> events, double exposure_s);

  const TriggerConfig& config() const { return config_; }

 private:
  TriggerConfig config_;
};

}  // namespace adapt::trigger
