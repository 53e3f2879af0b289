#include "trigger/rate_trigger.hpp"

#include <algorithm>
#include <cmath>

#include "core/require.hpp"
#include "core/stats.hpp"
#include "core/telemetry.hpp"

namespace adapt::trigger {

RateTrigger::RateTrigger(const TriggerConfig& config) : config_(config) {
  ADAPT_REQUIRE(!config.window_sizes_s.empty(), "no trigger timescales");
  for (const double w : config.window_sizes_s)
    ADAPT_REQUIRE(w > 0.0, "window sizes must be positive");
  ADAPT_REQUIRE(config.stride_fraction > 0.0 && config.stride_fraction <= 1.0,
                "stride fraction in (0, 1]");
  ADAPT_REQUIRE(config.background_rate_hz >= 0.0, "negative rate");
  ADAPT_REQUIRE(config.threshold_sigma > 0.0, "threshold must be positive");
}

namespace {

/// Drops the non-finite entries of `event_times` (counted under
/// `trigger.times_rejected.non_finite`) and sorts the rest.  Readout
/// streams arrive out of order (buffering, multiple front-end links),
/// so the scans sort rather than requiring monotone input.  Non-finite
/// timestamps must go first: a NaN breaks std::sort's
/// strict-weak-ordering contract (undefined behavior) and poisons the
/// lower_bound window counts even when sort survives.
void sort_finite(std::vector<double>& event_times) {
  static core::telemetry::Counter& rejected_times =
      core::telemetry::counter("trigger.times_rejected.non_finite");
  const auto finite_end =
      std::remove_if(event_times.begin(), event_times.end(),
                     [](double t) { return !std::isfinite(t); });
  rejected_times.add(static_cast<std::uint64_t>(
      std::distance(finite_end, event_times.end())));
  event_times.erase(finite_end, event_times.end());
  std::sort(event_times.begin(), event_times.end());
}

/// The one window sweep behind scan() and scan_all(): slides every
/// timescale of `config` across [0, exposure_s] and hands `visit` each
/// window with its count, background expectation and significance.
template <class Visit>
void sweep_windows(const TriggerConfig& config,
                   std::vector<double> event_times, double exposure_s,
                   Visit&& visit) {
  ADAPT_REQUIRE(exposure_s > 0.0, "exposure must be positive");
  sort_finite(event_times);
  for (const double window : config.window_sizes_s) {
    if (window > exposure_s) continue;
    const double mu = config.background_rate_hz * window;
    const double stride = window * config.stride_fraction;
    for (double t0 = 0.0; t0 + window <= exposure_s + 1e-12; t0 += stride) {
      const double t1 = t0 + window;
      // Count events in [t0, t1) via binary search on the sorted times.
      const auto lo = std::lower_bound(event_times.begin(),
                                       event_times.end(), t0);
      const auto hi = std::lower_bound(lo, event_times.end(), t1);
      const auto counts = static_cast<std::size_t>(std::distance(lo, hi));
      visit(TriggerInterval{t0, t1,
                            core::poisson_significance_sigma(counts, mu),
                            counts, mu});
    }
  }
}

}  // namespace

TriggerResult RateTrigger::scan(std::vector<double> event_times,
                                double exposure_s) const {
  // Keep the single most significant window (the first on a tie).
  TriggerResult best;
  sweep_windows(config_, std::move(event_times), exposure_s,
                [&best](const TriggerInterval& w) {
                  if (w.significance_sigma > best.significance_sigma) {
                    best.significance_sigma = w.significance_sigma;
                    best.t_start = w.t_start;
                    best.t_end = w.t_end;
                    best.counts = w.counts;
                    best.expected = w.expected;
                  }
                });
  best.triggered = best.significance_sigma >= config_.threshold_sigma;
  return best;
}

TriggerResult RateTrigger::scan(
    std::span<const detector::MeasuredEvent> events,
    double exposure_s) const {
  std::vector<double> times;
  times.reserve(events.size());
  for (const auto& event : events) times.push_back(event.time_s);
  return scan(std::move(times), exposure_s);
}

std::vector<TriggerInterval> RateTrigger::scan_all(
    std::vector<double> event_times, double exposure_s) const {
  // Collect EVERY window clearing the threshold instead of keeping one
  // champion.
  std::vector<TriggerInterval> hits;
  sweep_windows(config_, std::move(event_times), exposure_s,
                [&](const TriggerInterval& w) {
                  if (w.significance_sigma >= config_.threshold_sigma)
                    hits.push_back(w);
                });
  if (hits.empty()) return hits;

  // Merge overlapping windows across timescales into disjoint episodes,
  // each keeping its most significant constituent window's statistics.
  std::sort(hits.begin(), hits.end(),
            [](const TriggerInterval& a, const TriggerInterval& b) {
              if (a.t_start != b.t_start) return a.t_start < b.t_start;
              return a.t_end < b.t_end;
            });
  std::vector<TriggerInterval> merged;
  for (const TriggerInterval& h : hits) {
    if (!merged.empty() && h.t_start <= merged.back().t_end + 1e-12) {
      TriggerInterval& episode = merged.back();
      episode.t_end = std::max(episode.t_end, h.t_end);
      if (h.significance_sigma > episode.significance_sigma) {
        episode.significance_sigma = h.significance_sigma;
        episode.counts = h.counts;
        episode.expected = h.expected;
      }
    } else {
      merged.push_back(h);
    }
  }
  return merged;
}

std::vector<TriggerInterval> RateTrigger::scan_all(
    std::span<const detector::MeasuredEvent> events, double exposure_s) const {
  std::vector<double> times;
  times.reserve(events.size());
  for (const auto& event : events) times.push_back(event.time_s);
  return scan_all(std::move(times), exposure_s);
}

double RateTrigger::estimate_background_rate(
    std::span<const detector::MeasuredEvent> events, double exposure_s) {
  ADAPT_REQUIRE(exposure_s > 0.0, "exposure must be positive");
  return static_cast<double>(events.size()) / exposure_s;
}

}  // namespace adapt::trigger
