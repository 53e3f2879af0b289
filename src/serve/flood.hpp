#pragma once

/// \file flood.hpp
/// Fleet-scale load harness for the StreamRouter, shared by
/// bench_serve_multistream and `adaptctl flood`.
///
/// A flood run pre-generates one synthetic event stream, assigns each
/// event a logical stream id drawn from a Zipf(skew) distribution over
/// K streams (skew 0 = uniform; larger = hotter head), then replays it
/// through a running StreamRouter from P producer threads.  Out the
/// other side come the numbers the multi-stream layer is judged on:
///   * aggregate events/s and wall time,
///   * per-stream p50/p99 latency, delivered/shed counts, alert state,
///   * the Jain fairness index over per-stream delivery ratios
///     x_i = processed_i / submitted_i — 1.0 when every stream gets the
///     same fraction of its offered load through, 1/K when one stream
///     monopolizes the service.
///
/// The config-from-flags parsers double as the CLI validation layer
/// for `adaptctl flood` and `adaptctl serve-bench`: every flag is
/// parsed strictly (core::CliArgs) and range-checked HERE, so a
/// malformed invocation dies with CliError -> usage -> exit 2 at the
/// CLI boundary instead of tripping an ADAPT_REQUIRE (exit 1) deep in
/// the serve layer — and the rules are unit-testable without spawning
/// a process.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cli.hpp"
#include "pipeline/models.hpp"
#include "serve/throughput.hpp"

namespace adapt::serve {

struct FloodConfig {
  std::size_t streams = 100;
  std::size_t events = 200000;  ///< Total across all streams.
  /// Zipf exponent for the stream popularity ranking: stream k gets
  /// weight (k+1)^-skew.  0 = uniform.
  double skew = 1.0;
  std::size_t producers = 4;
  std::size_t shards = 8;
  std::size_t workers = 4;
  std::size_t shard_capacity = 8192;
  std::size_t per_stream_cap = 1024;
  std::size_t quantum = 16;
  std::size_t max_batch = 64;
  /// The router's idle wait (RouterConfig::flush_deadline).
  std::chrono::microseconds flush_deadline{200};
  double degrade_watermark = 0.75;
  bool degrade_when_saturated = true;
  std::uint64_t seed = 42;

  /// When > 0, every stream runs its own localizer on a shared
  /// synthetic burst (throughput.hpp alert mode, per stream).
  double alert_deg = 0.0;
  double alert_content = 0.68;
  double background_fraction = 0.25;
  double loc_resolution_deg = 2.0;
};

struct StreamFloodReport {
  std::uint32_t stream_id = 0;
  std::uint64_t submitted = 0;  ///< Offered load (admissions).
  std::uint64_t processed = 0;
  std::uint64_t shed = 0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  bool alert_fired = false;
};

struct FloodReport {
  double events_per_s = 0.0;  ///< Aggregate, processed / wall.
  double wall_ms = 0.0;
  double p50_latency_ms = 0.0;  ///< Over all delivered events.
  double p99_latency_ms = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t mixed_batches = 0;
  std::uint64_t degraded = 0;
  /// Jain index over per-stream delivery ratios; 1.0 = perfectly fair.
  double fairness = 0.0;
  std::size_t alerts_fired = 0;
  std::vector<StreamFloodReport> streams;  ///< By stream id.
};

/// Replay a Zipf-skewed multi-stream flood through a StreamRouter.
FloodReport measure_flood(pipeline::Models models, const FloodConfig& config);

/// Jain's fairness index over per-stream delivery ratios.  Streams
/// with zero offered load are skipped; an empty set scores 1.0.
double jain_fairness(const std::vector<StreamFloodReport>& streams);

/// Strict flag parsing + range validation for `adaptctl flood`.
/// Throws core::CliError on any malformed or out-of-range flag.
FloodConfig flood_config_from_args(const core::CliArgs& args);

/// Strict flag parsing + range validation for `adaptctl serve-bench`.
/// Throws core::CliError on any malformed or out-of-range flag
/// (notably: --batch > --queue, --alert-deg < 0, --alert-content or
/// --background-fraction outside their unit ranges — all formerly
/// either silent or deep ADAPT_REQUIRE aborts).
ThroughputConfig throughput_config_from_args(const core::CliArgs& args);

}  // namespace adapt::serve
