#include "serve/flood.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace adapt::serve {
namespace {

core::CliArgs make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"adaptctl", "cmd"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return core::CliArgs(static_cast<int>(argv.size()), argv.data(), 2);
}

TEST(JainFairness, PerfectWhenEveryStreamDeliversItsShare) {
  std::vector<StreamFloodReport> streams(4);
  for (auto& s : streams) {
    s.submitted = 100;
    s.processed = 60;  // Equal RATIO is what counts, not equal volume.
  }
  EXPECT_DOUBLE_EQ(jain_fairness(streams), 1.0);
}

TEST(JainFairness, MonopolyScoresOneOverN) {
  std::vector<StreamFloodReport> streams(4);
  for (auto& s : streams) s.submitted = 100;
  streams[0].processed = 100;  // One stream gets everything...
  EXPECT_DOUBLE_EQ(jain_fairness(streams), 0.25);  // ...score 1/N.
}

TEST(JainFairness, SkipsStreamsWithNoOfferedLoad) {
  std::vector<StreamFloodReport> streams(3);
  streams[0].submitted = 100;
  streams[0].processed = 50;
  streams[1].submitted = 200;
  streams[1].processed = 100;
  streams[2].submitted = 0;  // Never offered: not a fairness datum.
  EXPECT_DOUBLE_EQ(jain_fairness(streams), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

// End-to-end flood with null models (analytic passthrough — fast and
// deterministic in its accounting): the report's books must balance.
TEST(FloodHarness, ReportAccountingBalances) {
  FloodConfig cfg;
  cfg.streams = 6;
  cfg.events = 5000;
  cfg.skew = 1.0;
  cfg.producers = 2;
  cfg.shards = 3;
  cfg.workers = 2;
  // Deep enough that nothing sheds: every submitted event delivers.
  cfg.shard_capacity = 8192;
  cfg.per_stream_cap = 4096;
  cfg.seed = 7;

  const FloodReport report = measure_flood(pipeline::Models{}, cfg);
  EXPECT_EQ(report.submitted, cfg.events);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.processed, cfg.events);
  EXPECT_GT(report.events_per_s, 0.0);
  EXPECT_DOUBLE_EQ(report.fairness, 1.0);  // Nothing shed anywhere.
  EXPECT_GE(report.p99_latency_ms, report.p50_latency_ms);

  ASSERT_EQ(report.streams.size(), cfg.streams);
  std::uint64_t submitted = 0, processed = 0, shed = 0;
  for (const auto& s : report.streams) {
    submitted += s.submitted;
    processed += s.processed;
    shed += s.shed;
    EXPECT_EQ(s.submitted, s.processed + s.shed);
  }
  EXPECT_EQ(submitted, report.submitted);
  EXPECT_EQ(processed, report.processed);
  EXPECT_EQ(shed, report.shed);
}

// Zipf skew must actually skew: with skew 2 the rank-0 stream carries
// far more than the tail stream; with skew 0 the load is near-uniform.
TEST(FloodHarness, SkewShapesTheOfferedLoad) {
  FloodConfig cfg;
  cfg.streams = 8;
  cfg.events = 8000;
  cfg.producers = 1;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.shard_capacity = 16384;
  cfg.per_stream_cap = 8192;

  cfg.skew = 2.0;
  const FloodReport skewed = measure_flood(pipeline::Models{}, cfg);
  EXPECT_GT(skewed.streams.front().submitted,
            10 * skewed.streams.back().submitted);

  cfg.skew = 0.0;
  const FloodReport uniform = measure_flood(pipeline::Models{}, cfg);
  const double expect_per_stream =
      static_cast<double>(cfg.events) / static_cast<double>(cfg.streams);
  for (const auto& s : uniform.streams) {
    EXPECT_GT(static_cast<double>(s.submitted), 0.6 * expect_per_stream);
    EXPECT_LT(static_cast<double>(s.submitted), 1.4 * expect_per_stream);
  }
}

// --- CLI validation (satellite: malformed flags die at the CLI
// boundary with CliError -> exit 2, not deep in the serve layer) ---

TEST(FloodCli, ParsesValidFlags) {
  const FloodConfig cfg = flood_config_from_args(
      make({"--streams", "50", "--events", "10000", "--skew", "1.5",
            "--shards", "4", "--workers", "2", "--batch", "32",
            "--deadline-us", "0", "--no-degrade"}));
  EXPECT_EQ(cfg.streams, 50u);
  EXPECT_EQ(cfg.events, 10000u);
  EXPECT_DOUBLE_EQ(cfg.skew, 1.5);
  EXPECT_EQ(cfg.shards, 4u);
  EXPECT_EQ(cfg.workers, 2u);
  EXPECT_EQ(cfg.max_batch, 32u);
  // Zero deadline is legal now: "flush whatever is visible".
  EXPECT_EQ(cfg.flush_deadline.count(), 0);
  EXPECT_FALSE(cfg.degrade_when_saturated);
}

TEST(FloodCli, RejectsOutOfRangeFlags) {
  EXPECT_THROW(flood_config_from_args(make({"--streams", "0"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--streams", "2000000"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--skew", "-1"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--skew", "banana"})),
               core::CliError);
  EXPECT_THROW(
      flood_config_from_args(make({"--workers", "8", "--shards", "2"})),
      core::CliError);
  EXPECT_THROW(flood_config_from_args(
                   make({"--stream-cap", "9000", "--shard-cap", "4096"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(
                   make({"--batch", "9000", "--shard-cap", "4096"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--deadline-us", "-5"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--watermark", "0"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--alert-deg", "-1"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make({"--alert-content", "1.0"})),
               core::CliError);
  EXPECT_THROW(
      flood_config_from_args(make({"--background-fraction", "1.5"})),
      core::CliError);
}

TEST(ServeBenchCli, ParsesValidFlags) {
  const ThroughputConfig cfg = throughput_config_from_args(
      make({"--events", "1000", "--batch", "16", "--queue", "64",
            "--deadline-us", "0", "--alert-deg", "5", "--alert-content",
            "0.9", "--background-fraction", "0"}));
  EXPECT_EQ(cfg.events, 1000u);
  EXPECT_EQ(cfg.max_batch, 16u);
  EXPECT_EQ(cfg.queue_capacity, 64u);
  EXPECT_EQ(cfg.flush_deadline.count(), 0);
  EXPECT_DOUBLE_EQ(cfg.alert_deg, 5.0);
  EXPECT_DOUBLE_EQ(cfg.alert_content, 0.9);
  EXPECT_DOUBLE_EQ(cfg.background_fraction, 0.0);
}

TEST(ServeBenchCli, RejectsOutOfRangeFlags) {
  // A CliError (exit 2) before any serving machinery spins up, not an
  // ADAPT_REQUIRE abort (exit 1) inside the router.
  EXPECT_THROW(
      throughput_config_from_args(make({"--batch", "100", "--queue", "50"})),
      core::CliError);
  // Formerly silently disabled alerting.
  EXPECT_THROW(throughput_config_from_args(make({"--alert-deg", "-3"})),
               core::CliError);
  // Formerly tripped contracts (or nonsense) deep in the localizer.
  EXPECT_THROW(throughput_config_from_args(make({"--alert-content", "1.5"})),
               core::CliError);
  EXPECT_THROW(
      throughput_config_from_args(make({"--background-fraction", "-0.1"})),
      core::CliError);
  EXPECT_THROW(throughput_config_from_args(make({"--deadline-us", "0.5"})),
               core::CliError);
  EXPECT_THROW(throughput_config_from_args(make({"--events", "none"})),
               core::CliError);
}

}  // namespace
}  // namespace adapt::serve
