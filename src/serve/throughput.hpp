#pragma once

/// \file throughput.hpp
/// Measurement harness for the serving layer, shared by
/// bench_serve_throughput and `adaptctl serve-bench`.
///
/// Two measurement modes on the same pre-generated event stream:
///   * serve mode — producers submit into a running StreamRouter with
///     one stream, one shard, and one worker; events/s and per-event
///     latency quantiles come out of the sink.
///   * per-ring baseline — the same forwards issued one ring at a time
///     with no queue or batching: the cost the serving layer exists to
///     amortize.

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "pipeline/models.hpp"

namespace adapt::serve {

struct ThroughputConfig {
  std::size_t events = 20000;
  std::size_t producers = 1;
  std::size_t queue_capacity = 32768;
  std::size_t max_batch = 64;
  /// The router's idle wait (RouterConfig::flush_deadline).
  std::chrono::microseconds flush_deadline{200};
  double degrade_watermark = 0.75;
  bool degrade_when_saturated = true;
  std::uint64_t seed = 42;

  /// --- streaming-localization alert mode (serve-bench --alert-deg) ---
  /// When > 0, the event stream becomes a synthetic burst (rings
  /// consistent with one source direction plus a background fraction),
  /// the router localizes the stream, and the report carries the first
  /// crossing of the 68% credible radius below this threshold [deg].
  double alert_deg = 0.0;
  double alert_content = 0.68;
  std::size_t alert_check_every = 32;
  double source_polar_deg = 35.0;
  double source_azimuth_deg = 120.0;
  double source_d_eta = 0.05;
  double background_fraction = 0.25;
  double loc_resolution_deg = 1.0;
};

struct ThroughputReport {
  double events_per_s = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t processed = 0;
  std::uint64_t batches = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;

  /// Alert-mode outputs (meaningful when ThroughputConfig::alert_deg > 0).
  bool alert_fired = false;
  std::uint64_t alert_rings = 0;      ///< Accepted rings at the crossing.
  double alert_radius_deg = 0.0;      ///< Radius at the crossing.
  double alert_wall_ms = 0.0;         ///< Router start -> alert callback.
  double last_radius_deg = 0.0;       ///< Last checked radius
                                      ///< (StreamLocalizer::Status).
  std::uint64_t loc_rings = 0;        ///< Rings fed to the localizer.
  std::uint64_t loc_skipped = 0;      ///< Background-vetoed, not fed.
};

/// Run the full submit -> shard -> batched-forward path.
ThroughputReport measure_serve_throughput(pipeline::Models models,
                                          const ThroughputConfig& config);

/// Same events, one single-ring forward pair per event, no serving
/// machinery.  `events` and `seed` are read from `config`.
ThroughputReport measure_per_ring_baseline(pipeline::Models models,
                                           const ThroughputConfig& config);

}  // namespace adapt::serve
