#include "serve/flood.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"

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

// One stream on one shard and one worker is the single-stream
// service: below saturation everything is served and nothing shed.
TEST(FloodHarness, OneStreamProcessesEverything) {
  auto background = synthetic_background_net(51);
  auto deta = synthetic_deta_net(52);
  FloodConfig cfg;
  cfg.streams = 1;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.producers = 1;
  cfg.events = 256;
  cfg.max_batch = 16;
  cfg.shard_capacity = 1024;
  cfg.per_stream_cap = 1024;

  const FloodReport report = measure_flood({&background, &deta}, cfg);
  EXPECT_EQ(report.processed, cfg.events);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_GT(report.events_per_s, 0.0);
  EXPECT_GE(report.p99_latency_ms, report.p50_latency_ms);
  EXPECT_GT(report.batches, 0u);
  EXPECT_LE(report.batches, report.processed);
}

TEST(FloodHarness, PerRingProcessesEverything) {
  auto background = synthetic_background_net(51);
  FloodConfig cfg;
  cfg.streams = 1;
  cfg.events = 64;

  const FloodReport report = measure_per_ring({&background, nullptr}, cfg);
  EXPECT_EQ(report.processed, cfg.events);
  EXPECT_EQ(report.batches, cfg.events);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_GT(report.events_per_s, 0.0);
  EXPECT_GE(report.p99_latency_ms, report.p50_latency_ms);
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_EQ(report.streams[0].processed, cfg.events);
  EXPECT_DOUBLE_EQ(report.fairness, 1.0);
}

TEST(FloodHarness, OneStreamSaturationShedsButNeverLoses) {
  auto background = synthetic_background_net_int8(53);
  FloodConfig cfg;
  cfg.streams = 1;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.producers = 4;
  cfg.events = 512;
  cfg.shard_capacity = 16;  // Far too small on purpose.
  cfg.per_stream_cap = 16;
  cfg.max_batch = 16;

  const FloodReport report = measure_flood({&background, nullptr}, cfg);
  // Every event is accounted for: served or visibly shed.
  EXPECT_EQ(report.processed + report.shed, cfg.events);
  EXPECT_GT(report.processed, 0u);
}

// The sequence-indexed latency log against the per-stream vectors it
// replaced, on the ReportAccountingBalances topology (6 Zipf-1 streams,
// 3 shards, 2 workers, 2 producers, 5000 events): one router sink
// feeds both, and each stream must get the same count and the same
// sorted latencies, hence the same value at every quantile rank.
TEST(FloodHarness, SequenceLogMatchesPerStreamVectors) {
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kEvents = 5000;
  RouterConfig rc;
  rc.num_shards = 3;
  rc.num_workers = 2;
  rc.shard_capacity = 8192;
  rc.per_stream_cap = 4096;

  core::Rng rng(7);
  std::vector<double> cdf(kStreams);
  double total = 0.0;
  for (std::size_t k = 0; k < kStreams; ++k)
    cdf[k] = total += 1.0 / static_cast<double>(k + 1);
  std::vector<std::uint32_t> stream_of(kEvents);
  std::vector<recon::ComptonRing> rings(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    rings[i] = synthetic_ring(rng);
    stream_of[i] = static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.uniform() * total) -
            cdf.begin(),
        static_cast<std::ptrdiff_t>(kStreams) - 1));
  }

  // Old recorder: one vector per stream, safe because the router
  // serializes sink calls per stream.  New: one slot per sequence.
  std::vector<std::vector<double>> per_stream(kStreams);
  std::vector<Delivery> log(kEvents);
  StreamRouter router(pipeline::Models{}, rc,
                      [&](std::span<const ServeResult> results) {
                        for (const ServeResult& r : results) {
                          per_stream[r.stream_id].push_back(r.latency_ms);
                          log[r.sequence - 1] = {r.latency_ms, r.stream_id};
                        }
                      });
  router.start();
  std::thread second([&] {
    for (std::size_t i = kEvents / 2; i < kEvents; ++i)
      router.submit(stream_of[i], rings[i], 30.0);
  });
  for (std::size_t i = 0; i < kEvents / 2; ++i)
    router.submit(stream_of[i], rings[i], 30.0);
  second.join();
  router.stop();
  ASSERT_EQ(router.stats().processed, kEvents);

  const StreamLatencies grouped = group_by_stream(log, kStreams);
  ASSERT_EQ(grouped.offsets.size(), kStreams + 1);
  EXPECT_EQ(grouped.samples.size(), kEvents);
  for (std::size_t k = 0; k < kStreams; ++k) {
    const auto first = grouped.samples.begin();
    std::vector<double> mine(
        first + static_cast<std::ptrdiff_t>(grouped.offsets[k]),
        first + static_cast<std::ptrdiff_t>(grouped.offsets[k + 1]));
    std::vector<double> old = per_stream[k];
    ASSERT_EQ(mine.size(), old.size()) << "stream " << k;
    ASSERT_FALSE(old.empty()) << "stream " << k;
    std::sort(mine.begin(), mine.end());
    std::sort(old.begin(), old.end());
    EXPECT_EQ(mine, old) << "stream " << k;
  }
}

// More streams than events: most streams see nothing, the log stays
// one slot per event, and the books still balance.
TEST(FloodHarness, MoreStreamsThanEvents) {
  FloodConfig cfg;
  cfg.streams = 1000;
  cfg.events = 200;
  cfg.skew = 0.0;
  cfg.producers = 2;
  cfg.shards = 4;
  cfg.workers = 2;

  const FloodReport report = measure_flood(pipeline::Models{}, cfg);
  EXPECT_EQ(report.submitted, cfg.events);
  EXPECT_EQ(report.processed, cfg.events);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_DOUBLE_EQ(report.fairness, 1.0);
  EXPECT_GE(report.p99_latency_ms, report.p50_latency_ms);
  ASSERT_EQ(report.streams.size(), cfg.streams);
  std::uint64_t processed = 0;
  std::size_t idle = 0;
  for (const auto& s : report.streams) {
    processed += s.processed;
    if (s.submitted == 0) {
      ++idle;
      EXPECT_EQ(s.p50_latency_ms, 0.0);
      EXPECT_EQ(s.p99_latency_ms, 0.0);
    }
  }
  EXPECT_EQ(processed, cfg.events);
  EXPECT_GE(idle, cfg.streams - cfg.events);

  std::vector<Delivery> log(3);
  log[0] = {1.0, 999};
  log[2] = {2.0, 999};  // log[1] was shed.
  const StreamLatencies grouped = group_by_stream(log, cfg.streams);
  ASSERT_EQ(grouped.offsets.size(), cfg.streams + 1);
  EXPECT_EQ(grouped.offsets[999], 0u);
  EXPECT_EQ(grouped.samples, (std::vector<double>{1.0, 2.0}));
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

// The old one-stream serving bench is `adaptctl flood --streams 1`: its
// flags (queue -> shard-cap + stream-cap) parse and reject through the
// flood parser.

TEST(ServeBenchCli, ParsesValidFlags) {
  const FloodConfig cfg = flood_config_from_args(
      make({"--streams", "1", "--events", "1000", "--batch", "16",
            "--shard-cap", "64", "--stream-cap", "64", "--deadline-us",
            "0", "--alert-deg", "5", "--alert-content", "0.9",
            "--background-fraction", "0"}));
  EXPECT_EQ(cfg.streams, 1u);
  EXPECT_EQ(cfg.events, 1000u);
  EXPECT_EQ(cfg.max_batch, 16u);
  EXPECT_EQ(cfg.shard_capacity, 64u);
  EXPECT_EQ(cfg.per_stream_cap, 64u);
  EXPECT_EQ(cfg.flush_deadline.count(), 0);
  EXPECT_DOUBLE_EQ(cfg.alert_deg, 5.0);
  EXPECT_DOUBLE_EQ(cfg.alert_content, 0.9);
  EXPECT_DOUBLE_EQ(cfg.background_fraction, 0.0);
}

TEST(ServeBenchCli, RejectsOutOfRangeFlags) {
  // A CliError (exit 2) before any serving machinery spins up, not an
  // ADAPT_REQUIRE abort (exit 1) inside the router.
  EXPECT_THROW(flood_config_from_args(
                   make({"--streams", "1", "--batch", "100", "--shard-cap",
                         "50", "--stream-cap", "50"})),
               core::CliError);
  EXPECT_THROW(
      flood_config_from_args(make({"--streams", "1", "--alert-deg", "-3"})),
      core::CliError);
  EXPECT_THROW(flood_config_from_args(
                   make({"--streams", "1", "--alert-content", "1.5"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(make(
                   {"--streams", "1", "--background-fraction", "-0.1"})),
               core::CliError);
  EXPECT_THROW(flood_config_from_args(
                   make({"--streams", "1", "--deadline-us", "0.5"})),
               core::CliError);
  EXPECT_THROW(
      flood_config_from_args(make({"--streams", "1", "--events", "none"})),
      core::CliError);
}

}  // namespace
}  // namespace adapt::serve
