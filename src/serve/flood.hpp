#pragma once

/// \file flood.hpp
/// The load harness for the StreamRouter, shared by
/// bench_serve_multistream and `adaptctl flood`.
///
/// A flood run pre-generates one synthetic event stream, assigns each
/// event a logical stream id drawn from a Zipf(skew) distribution over
/// K streams (skew 0 = uniform; larger = hotter head), then replays it
/// through a running StreamRouter from P producer threads.  Out the
/// other side come the numbers the serving layer is judged on:
///   * aggregate events/s and wall time,
///   * per-stream p50/p99 latency, delivered/shed counts, and (with
///     alert_deg > 0) each stream's localizer and early-alert state,
///   * the Jain fairness index over per-stream delivery ratios
///     x_i = processed_i / submitted_i — 1.0 when every stream gets the
///     same fraction of its offered load through, 1/K when one stream
///     monopolizes the service.
/// One stream on one shard and one worker is the single-stream
/// service; measure_per_ring() replays the same events with no serving
/// machinery, the cost the router's batching amortizes.
///
/// The config-from-flags parser doubles as the CLI validation layer
/// for `adaptctl flood`: every flag is parsed strictly (core::CliArgs)
/// and range-checked HERE, so a malformed invocation dies with
/// CliError -> usage -> exit 2 at the CLI boundary instead of tripping
/// an ADAPT_REQUIRE (exit 1) deep in the serve layer — and the rules
/// are unit-testable without spawning a process.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/cli.hpp"
#include "pipeline/models.hpp"

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

  /// When > 0, the events become one synthetic burst (rings consistent
  /// with one source direction plus a background fraction), every
  /// stream localizes its share with its own localizer, and the report
  /// carries each stream's first crossing of the alert_content credible
  /// radius below this threshold [deg].
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
  // Streaming localization (alert_deg > 0), from the stream's
  // StreamLocalizer::Status.
  std::uint64_t alert_rings = 0;  ///< Accepted rings at the crossing.
  double alert_radius_deg = 0.0;  ///< Radius at the crossing.
  double alert_ms = 0.0;          ///< Router start -> alert callback.
  std::uint64_t loc_rings = 0;    ///< Rings fed to the localizer.
  std::uint64_t loc_skipped = 0;  ///< Background-vetoed, not fed.
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

/// The same events, one one-ring Models::infer_batch per event on the
/// calling thread (the call a router worker makes per batch): no
/// queue, no batching, nothing shed.  Reads
/// `streams`, `events`, `skew`, `seed` and the alert-mode event shape
/// from `config`; `batches` counts one per event.
FloodReport measure_per_ring(pipeline::Models models,
                             const FloodConfig& config);

/// One slot of a flood's latency log.  The log holds one slot per
/// submission, at index ServeResult::sequence - 1, so its size is the
/// event count whatever the stream count; the slot of an event that
/// was shed keeps stream_id == kNoStream.
struct Delivery {
  static constexpr std::uint32_t kNoStream =
      std::numeric_limits<std::uint32_t>::max();
  double latency_ms = 0.0;
  std::uint32_t stream_id = kNoStream;
};

/// A latency log grouped by stream (a counting sort): stream k's
/// latencies are samples[offsets[k], offsets[k + 1]), in log order.
/// Slots whose stream_id is not below `streams` (shed) are skipped.
struct StreamLatencies {
  std::vector<double> samples;
  std::vector<std::size_t> offsets;  ///< streams + 1 entries.
};
StreamLatencies group_by_stream(std::span<const Delivery> log,
                                std::size_t streams);

/// Jain's fairness index over per-stream delivery ratios.  Streams
/// with zero offered load are skipped; an empty set scores 1.0.
double jain_fairness(const std::vector<StreamFloodReport>& streams);

/// Strict flag parsing + range validation for `adaptctl flood`.
/// Throws core::CliError on any malformed or out-of-range flag.
FloodConfig flood_config_from_args(const core::CliArgs& args);

}  // namespace adapt::serve
