#include "trigger/rate_trigger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/telemetry.hpp"
#include "sim/exposure.hpp"

namespace adapt::trigger {
namespace {

// ---------------------------------------------------------------------
// The Poisson-significance statistic underneath the trigger.

TEST(PoissonSignificance, TailProbabilityKnownValues) {
  // P(X >= 1 | mu) = 1 - e^-mu.
  for (double mu : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(std::exp(core::poisson_tail_log_p(1, mu)),
                1.0 - std::exp(-mu), 1e-10);
  }
  // P(X >= k | 0) = 0 for k > 0; P(X >= 0 | mu) = 1.
  EXPECT_EQ(core::poisson_tail_log_p(0, 5.0), 0.0);
  EXPECT_TRUE(std::isinf(core::poisson_tail_log_p(3, 0.0)));
}

TEST(PoissonSignificance, MatchesNormalApproximationForLargeMu) {
  // At mu = 10000, k = 10300 (3 sigma) the exact tail must agree with
  // the Gaussian to a few percent in sigma.
  const double sigma = core::poisson_significance_sigma(10300, 10000.0);
  EXPECT_NEAR(sigma, 3.0, 0.1);
}

TEST(PoissonSignificance, MonotonicInCounts) {
  double prev = 0.0;
  for (std::uint64_t k = 100; k <= 200; k += 10) {
    const double s = core::poisson_significance_sigma(k, 100.0);
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_GT(prev, 5.0);
}

TEST(PoissonSignificance, UnderFluctuationIsZero) {
  EXPECT_DOUBLE_EQ(core::poisson_significance_sigma(50, 100.0), 0.0);
}

TEST(NormalQuantile, RoundTripsKnownPoints) {
  EXPECT_NEAR(core::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(core::normal_quantile(0.8413447), 1.0, 1e-4);
  EXPECT_NEAR(core::normal_quantile(0.9772499), 2.0, 1e-4);
  EXPECT_NEAR(core::normal_quantile(1.0 - 2.866516e-7), 5.0, 1e-3);
  EXPECT_THROW(core::normal_quantile(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Trigger behaviour on synthetic time streams.

std::vector<double> uniform_times(double rate_hz, double exposure_s,
                                  core::Rng& rng) {
  const auto n = rng.poisson(rate_hz * exposure_s);
  std::vector<double> times;
  times.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    times.push_back(rng.uniform(0.0, exposure_s));
  return times;
}

TEST(RateTrigger, QuietBackgroundDoesNotTrigger) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(1);
  int false_alarms = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto result =
        trigger.scan(uniform_times(3000.0, 1.0, rng), 1.0);
    if (result.triggered) ++false_alarms;
  }
  // 5-sigma threshold with ~500 correlated windows per trial: false
  // alarms should be absent at this sample size.
  EXPECT_EQ(false_alarms, 0);
}

TEST(RateTrigger, BurstOnTopOfBackgroundTriggers) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(2);
  auto times = uniform_times(3000.0, 1.0, rng);
  // A burst: 400 extra events concentrated in [0.30, 0.40].
  for (int i = 0; i < 400; ++i) times.push_back(rng.uniform(0.30, 0.40));
  const auto result = trigger.scan(std::move(times), 1.0);
  ASSERT_TRUE(result.triggered);
  EXPECT_GT(result.significance_sigma, 5.0);
  // The best window must overlap the burst interval.
  EXPECT_LT(result.t_start, 0.40);
  EXPECT_GT(result.t_end, 0.30);
}

TEST(RateTrigger, SignificanceGrowsWithBurstStrength) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  double prev = 0.0;
  for (const int extra : {100, 300, 900}) {
    core::Rng rng(3);
    auto times = uniform_times(3000.0, 1.0, rng);
    for (int i = 0; i < extra; ++i)
      times.push_back(rng.uniform(0.5, 0.6));
    const double sigma =
        trigger.scan(std::move(times), 1.0).significance_sigma;
    EXPECT_GT(sigma, prev);
    prev = sigma;
  }
}

TEST(RateTrigger, ShortSpikeFoundOnShortTimescale) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(4);
  auto times = uniform_times(3000.0, 1.0, rng);
  // A 10 ms spike: only the short windows resolve it cleanly.
  for (int i = 0; i < 120; ++i) times.push_back(rng.uniform(0.700, 0.710));
  const auto result = trigger.scan(std::move(times), 1.0);
  ASSERT_TRUE(result.triggered);
  EXPECT_LE(result.t_end - result.t_start, 0.065);
}

TEST(RateTrigger, ShuffledArrivalMatchesSortedBitIdentical) {
  // Readout links deliver events out of order; the scan's rate
  // estimate must not depend on arrival order at all.
  core::Rng rng(41);
  TriggerConfig cfg;
  cfg.background_rate_hz = 900.0;
  const RateTrigger trigger(cfg);

  std::vector<double> sorted_times = uniform_times(900.0, 1.0, rng);
  for (int i = 0; i < 150; ++i)
    sorted_times.push_back(rng.uniform(0.300, 0.330));
  std::sort(sorted_times.begin(), sorted_times.end());

  std::vector<double> shuffled = sorted_times;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(rng.uniform_index(i))]);
  ASSERT_NE(shuffled, sorted_times);  // The shuffle actually shuffled.

  const auto a = trigger.scan(std::move(sorted_times), 1.0);
  const auto b = trigger.scan(std::move(shuffled), 1.0);
  EXPECT_EQ(a.triggered, b.triggered);
  EXPECT_EQ(a.significance_sigma, b.significance_sigma);
  EXPECT_EQ(a.t_start, b.t_start);
  EXPECT_EQ(a.t_end, b.t_end);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(RateTrigger, NonFiniteTimesAreIgnoredAndCounted) {
  // A NaN in the time stream would break std::sort's strict weak
  // ordering (undefined behavior) and poison the binary-search window
  // counts; the scan must drop such entries, count them, and return
  // the same answer as a clean stream.
  core::Rng rng(42);
  TriggerConfig cfg;
  cfg.background_rate_hz = 900.0;
  const RateTrigger trigger(cfg);

  std::vector<double> clean = uniform_times(900.0, 1.0, rng);
  for (int i = 0; i < 80; ++i) clean.push_back(rng.uniform(0.500, 0.540));
  std::vector<double> dirty = clean;
  dirty.insert(dirty.begin() + 3,
               std::numeric_limits<double>::quiet_NaN());
  dirty.push_back(std::numeric_limits<double>::infinity());
  dirty.push_back(-std::numeric_limits<double>::infinity());

  core::telemetry::set_enabled(true);
  const auto before = core::telemetry::snapshot();
  const auto a = trigger.scan(std::move(clean), 1.0);
  const auto mid = core::telemetry::snapshot();
  const auto b = trigger.scan(std::move(dirty), 1.0);
  const auto after = core::telemetry::snapshot();
  core::telemetry::set_enabled(false);

  EXPECT_EQ(a.significance_sigma, b.significance_sigma);
  EXPECT_EQ(a.t_start, b.t_start);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(
      mid.since(before).counters.at("trigger.times_rejected.non_finite"), 0u);
  EXPECT_EQ(
      after.since(mid).counters.at("trigger.times_rejected.non_finite"), 3u);
}

TEST(RateTrigger, ConfigValidation) {
  TriggerConfig cfg;
  cfg.window_sizes_s = {};
  EXPECT_THROW(RateTrigger{cfg}, std::invalid_argument);
  cfg = TriggerConfig{};
  cfg.stride_fraction = 0.0;
  EXPECT_THROW(RateTrigger{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// scan_all: every over-threshold episode, not just the champion.

TEST(ScanAll, QuietBackgroundYieldsNoIntervals) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(50);
  EXPECT_TRUE(trigger.scan_all(uniform_times(3000.0, 1.0, rng), 1.0).empty());
}

TEST(ScanAll, SingleBurstYieldsOneIntervalMatchingScan) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(51);
  auto times = uniform_times(3000.0, 1.0, rng);
  for (int i = 0; i < 400; ++i) times.push_back(rng.uniform(0.30, 0.40));

  const auto best = trigger.scan(times, 1.0);
  const auto intervals = trigger.scan_all(times, 1.0);
  ASSERT_EQ(intervals.size(), 1u);
  // The merged episode carries the champion window's statistics and
  // covers it.
  EXPECT_EQ(intervals[0].significance_sigma, best.significance_sigma);
  EXPECT_EQ(intervals[0].counts, best.counts);
  EXPECT_LE(intervals[0].t_start, best.t_start);
  EXPECT_GE(intervals[0].t_end, best.t_end);
}

TEST(ScanAll, TwoSeparatedSpikesYieldTwoOrderedIntervals) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(52);
  auto times = uniform_times(3000.0, 4.0, rng);
  for (int i = 0; i < 500; ++i) times.push_back(rng.uniform(0.50, 0.60));
  for (int i = 0; i < 500; ++i) times.push_back(rng.uniform(2.80, 2.90));

  const auto intervals = trigger.scan_all(std::move(times), 4.0);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_LT(intervals[0].t_end, intervals[1].t_start);
  // Each episode localizes its own spike.
  EXPECT_LT(intervals[0].t_start, 0.60);
  EXPECT_GT(intervals[0].t_end, 0.50);
  EXPECT_LT(intervals[1].t_start, 2.90);
  EXPECT_GT(intervals[1].t_end, 2.80);
  EXPECT_GE(intervals[0].significance_sigma, cfg.threshold_sigma);
  EXPECT_GE(intervals[1].significance_sigma, cfg.threshold_sigma);
}

TEST(ScanAll, IntervalsAreDisjoint) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(53);
  auto times = uniform_times(3000.0, 2.0, rng);
  // Overlapping excesses on different timescales must merge.
  for (int i = 0; i < 300; ++i) times.push_back(rng.uniform(0.80, 0.82));
  for (int i = 0; i < 600; ++i) times.push_back(rng.uniform(0.75, 1.05));
  const auto intervals = trigger.scan_all(std::move(times), 2.0);
  ASSERT_GE(intervals.size(), 1u);
  for (std::size_t i = 1; i < intervals.size(); ++i)
    EXPECT_GT(intervals[i].t_start, intervals[i - 1].t_end);
}

TEST(ScanAll, NonFiniteTimesAreDropped) {
  TriggerConfig cfg;
  cfg.background_rate_hz = 3000.0;
  const RateTrigger trigger(cfg);
  core::Rng rng(54);
  auto clean = uniform_times(3000.0, 1.0, rng);
  for (int i = 0; i < 400; ++i) clean.push_back(rng.uniform(0.30, 0.40));
  auto dirty = clean;
  dirty.push_back(std::numeric_limits<double>::quiet_NaN());
  dirty.push_back(std::numeric_limits<double>::infinity());

  core::telemetry::set_enabled(true);
  const auto before = core::telemetry::snapshot();
  const auto a = trigger.scan_all(std::move(clean), 1.0);
  const auto mid = core::telemetry::snapshot();
  const auto b = trigger.scan_all(std::move(dirty), 1.0);
  const auto after = core::telemetry::snapshot();
  core::telemetry::set_enabled(false);

  // Dropped and counted exactly as in scan().
  EXPECT_EQ(
      mid.since(before).counters.at("trigger.times_rejected.non_finite"), 0u);
  EXPECT_EQ(
      after.since(mid).counters.at("trigger.times_rejected.non_finite"), 2u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_start, b[i].t_start);
    EXPECT_EQ(a[i].t_end, b[i].t_end);
    EXPECT_EQ(a[i].significance_sigma, b[i].significance_sigma);
  }
}

// ---------------------------------------------------------------------
// End-to-end: trigger on a simulated exposure.

TEST(RateTrigger, DetectsSimulatedBurst) {
  const detector::Geometry geometry;
  const auto material = detector::Material::csi();
  const sim::ExposureSimulator simulator(geometry, material);
  core::Rng rng(5);

  // Calibrate the background rate from a burst-free window.
  const auto quiet =
      simulator.simulate_background_only(sim::BackgroundConfig{}, rng);
  TriggerConfig cfg;
  cfg.background_rate_hz =
      RateTrigger::estimate_background_rate(quiet.events, 1.0);
  const RateTrigger trigger(cfg);

  // Background-only must stay quiet...
  const auto quiet2 =
      simulator.simulate_background_only(sim::BackgroundConfig{}, rng);
  EXPECT_FALSE(trigger.scan(quiet2.events, 1.0).triggered);

  // ...and a 1 MeV/cm^2 burst must fire decisively.
  const auto burst =
      simulator.simulate(sim::GrbConfig{}, sim::BackgroundConfig{}, rng);
  const auto result = trigger.scan(burst.events, 1.0);
  ASSERT_TRUE(result.triggered);
  EXPECT_GT(result.significance_sigma, 10.0);
  // The trigger window should overlap the light-curve pulse.
  const sim::LightCurveParams lc;  // Defaults used by GrbConfig.
  EXPECT_GT(result.t_end, lc.t_start);
  EXPECT_LT(result.t_start, lc.t_start + 5.0 * lc.decay);
}

}  // namespace
}  // namespace adapt::trigger
