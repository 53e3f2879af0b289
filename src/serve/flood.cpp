#include "serve/flood.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/require.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "serve/load_generator.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::serve {

namespace {

struct FloodEvent {
  recon::ComptonRing ring;
  double polar_deg = 0.0;
  std::uint32_t stream_id = 0;
};

/// Cumulative Zipf(skew) distribution over `streams` ranks; stream k
/// gets weight (k+1)^-skew.  skew 0 degenerates to uniform.
std::vector<double> zipf_cdf(std::size_t streams, double skew) {
  std::vector<double> cdf(streams);
  double total = 0.0;
  for (std::size_t k = 0; k < streams; ++k) {
    total += std::pow(static_cast<double>(k + 1), -skew);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;  // Guard the tail against rounding.
  return cdf;
}

std::vector<FloodEvent> make_flood_stream(const FloodConfig& config) {
  core::Rng rng(config.seed);
  const std::vector<double> cdf = zipf_cdf(config.streams, config.skew);
  const bool alert_mode = config.alert_deg > 0.0;
  // Alert mode: every stream observes the same synthetic burst (one
  // source direction), so each per-stream localizer converges on its
  // own subset of the rings — the per-stream analog of the
  // throughput.hpp burst stream.
  const core::Vec3 source = core::from_spherical(
      core::deg_to_rad(35.0), core::deg_to_rad(120.0));
  constexpr double kSourceDEta = 0.05;

  std::vector<FloodEvent> events(config.events);
  for (FloodEvent& e : events) {
    e.ring = synthetic_ring(rng);
    e.polar_deg = rng.uniform(0.0, 90.0);
    const auto it =
        std::upper_bound(cdf.begin(), cdf.end(), rng.uniform());
    e.stream_id = static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
    if (alert_mode) {
      e.ring.axis = rng.isotropic_direction();
      e.ring.d_eta = kSourceDEta;
      if (rng.uniform() < config.background_fraction) {
        e.ring.eta = rng.uniform(-1.0, 1.0);
      } else {
        e.ring.eta = std::clamp(
            e.ring.axis.dot(source) + rng.normal(0.0, kSourceDEta), -1.0,
            1.0);
      }
    }
  }
  return events;
}

/// Strict non-negative integer flag (count() rejects 0, which is a
/// legal --deadline-us: the router then idles in 100 us waits).
std::uint64_t non_negative_count(const core::CliArgs& args,
                                 const std::string& key,
                                 std::uint64_t fallback) {
  const double v = args.number(key, static_cast<double>(fallback));
  if (v < 0.0 || v != std::floor(v) || v > 1e15) {
    throw core::CliError("--" + key + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

void check_unit_interval(const core::CliArgs& args, const std::string& key,
                         double value, bool allow_zero, bool allow_one) {
  const bool lo_ok = allow_zero ? value >= 0.0 : value > 0.0;
  const bool hi_ok = allow_one ? value <= 1.0 : value < 1.0;
  if (!lo_ok || !hi_ok) {
    throw core::CliError("--" + key + "='" + args.text(key, "") +
                         "' is outside " + (allow_zero ? "[" : "(") + "0, 1" +
                         (allow_one ? "]" : ")"));
  }
}

}  // namespace

double jain_fairness(const std::vector<StreamFloodReport>& streams) {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (const StreamFloodReport& s : streams) {
    if (s.submitted == 0) continue;
    const double x =
        static_cast<double>(s.processed) / static_cast<double>(s.submitted);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n == 0) return 1.0;
  if (sum_sq <= 0.0) return 0.0;  // Offered load, nothing delivered.
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

FloodReport measure_flood(pipeline::Models models, const FloodConfig& config) {
  ADAPT_REQUIRE(config.streams >= 1, "flood needs at least one stream");
  ADAPT_REQUIRE(config.events >= 1, "flood needs at least one event");
  ADAPT_REQUIRE(config.producers >= 1, "flood needs at least one producer");
  const std::vector<FloodEvent> events = make_flood_stream(config);

  RouterConfig rc;
  rc.num_shards = config.shards;
  rc.num_workers = config.workers;
  rc.shard_capacity = config.shard_capacity;
  rc.per_stream_cap = config.per_stream_cap;
  rc.quantum = config.quantum;
  rc.max_batch = config.max_batch;
  rc.flush_deadline = config.flush_deadline;
  rc.degrade_watermark = config.degrade_watermark;
  rc.degrade_when_saturated = config.degrade_when_saturated;
  if (config.alert_deg > 0.0) {
    rc.localize = true;
    rc.localizer_template.localizer.resolution_deg = config.loc_resolution_deg;
    rc.localizer_template.alert_radius_deg = config.alert_deg;
    rc.localizer_template.alert_content = config.alert_content;
    // Synthetic-model floods localize with the rings' own analytic
    // widths (same rationale as the serve-bench alert mode).
    rc.localizer_template.use_served_d_eta = false;
  }

  // One latency vector per stream.  Sink calls for the same stream are
  // serialized by the router (stream -> shard -> worker is static), so
  // concurrent workers never touch the same inner vector.  Reserve for
  // the hot stream's plausible share up front (the single-stream bench
  // reserves fully) so sink-side reallocation does not tax the
  // measured region; the cap keeps the reservation bounded when the
  // stream count is huge.
  std::vector<std::vector<double>> latencies(config.streams);
  const std::size_t reserve_per_stream = std::min<std::size_t>(
      config.events, 8 * (config.events / config.streams) + 256);
  for (auto& v : latencies) v.reserve(reserve_per_stream);
  StreamRouter router(models, rc,
                      [&](std::span<const ServeResult> results) {
                        for (const ServeResult& r : results)
                          latencies[r.stream_id].push_back(r.latency_ms);
                      });

  const auto t0 = std::chrono::steady_clock::now();
  router.start();
  fan_out_producers(events.size(), config.producers, [&](std::size_t i) {
    router.submit(events[i].stream_id, events[i].ring, events[i].polar_deg);
  });
  router.stop();
  const auto t1 = std::chrono::steady_clock::now();

  const StreamRouter::Stats stats = router.stats();
  FloodReport report;
  report.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  report.submitted = stats.submitted;
  report.processed = stats.processed;
  report.shed = stats.shed;
  report.batches = stats.batches;
  report.mixed_batches = stats.mixed_batches;
  report.degraded = stats.degraded;
  report.events_per_s =
      report.wall_ms > 0.0
          ? static_cast<double>(stats.processed) * 1e3 / report.wall_ms
          : 0.0;

  report.streams.resize(config.streams);
  for (std::size_t k = 0; k < config.streams; ++k)
    report.streams[k].stream_id = static_cast<std::uint32_t>(k);
  for (const StreamRouter::StreamStats& row : router.stream_stats()) {
    if (row.stream_id >= config.streams) continue;
    StreamFloodReport& s = report.streams[row.stream_id];
    s.submitted = row.submitted;
    s.processed = row.processed;
    s.shed = row.shed;
    s.alert_fired = row.alert_fired;
    if (s.alert_fired) ++report.alerts_fired;
  }
  std::vector<double> all;
  all.reserve(events.size());
  for (std::size_t k = 0; k < config.streams; ++k) {
    StreamFloodReport& s = report.streams[k];
    s.p50_latency_ms = percentile(latencies[k], 0.50);
    s.p99_latency_ms = percentile(latencies[k], 0.99);
    all.insert(all.end(), latencies[k].begin(), latencies[k].end());
  }
  report.p50_latency_ms = percentile(all, 0.50);
  report.p99_latency_ms = percentile(all, 0.99);
  report.fairness = jain_fairness(report.streams);
  return report;
}

FloodConfig flood_config_from_args(const core::CliArgs& args) {
  FloodConfig cfg;
  cfg.streams = args.count("streams", cfg.streams);
  if (cfg.streams > 1000000) {
    throw core::CliError("--streams must be <= 1000000");
  }
  cfg.events = args.count("events", cfg.events);
  cfg.skew = args.number("skew", cfg.skew);
  if (cfg.skew < 0.0 || cfg.skew > 16.0) {
    throw core::CliError("--skew must be in [0, 16]");
  }
  cfg.producers = args.count("producers", cfg.producers);
  cfg.shards = args.count("shards", cfg.shards);
  cfg.workers = args.count("workers", cfg.workers);
  if (cfg.workers > cfg.shards) {
    throw core::CliError("--workers cannot exceed --shards (a worker "
                         "with no shard would idle forever)");
  }
  cfg.shard_capacity = args.count("shard-cap", cfg.shard_capacity);
  cfg.per_stream_cap = args.count("stream-cap", cfg.per_stream_cap);
  if (cfg.per_stream_cap > cfg.shard_capacity) {
    throw core::CliError("--stream-cap cannot exceed --shard-cap");
  }
  cfg.quantum = args.count("quantum", cfg.quantum);
  cfg.max_batch = args.count("batch", cfg.max_batch);
  if (cfg.max_batch > cfg.shard_capacity) {
    throw core::CliError("--batch cannot exceed --shard-cap");
  }
  cfg.flush_deadline = std::chrono::microseconds(static_cast<long>(
      non_negative_count(args, "deadline-us",
                         static_cast<std::uint64_t>(
                             cfg.flush_deadline.count()))));
  cfg.degrade_watermark = args.number("watermark", cfg.degrade_watermark);
  check_unit_interval(args, "watermark", cfg.degrade_watermark,
                      /*allow_zero=*/false, /*allow_one=*/true);
  cfg.degrade_when_saturated = !args.has("no-degrade");
  cfg.seed = args.count("seed", cfg.seed);
  cfg.alert_deg = args.number("alert-deg", cfg.alert_deg);
  if (cfg.alert_deg < 0.0) {
    throw core::CliError("--alert-deg must be >= 0 (0 disables alerting)");
  }
  cfg.alert_content = args.number("alert-content", cfg.alert_content);
  check_unit_interval(args, "alert-content", cfg.alert_content,
                      /*allow_zero=*/false, /*allow_one=*/false);
  cfg.background_fraction =
      args.number("background-fraction", cfg.background_fraction);
  check_unit_interval(args, "background-fraction", cfg.background_fraction,
                      /*allow_zero=*/true, /*allow_one=*/true);
  cfg.loc_resolution_deg =
      args.positive_number("loc-resolution", cfg.loc_resolution_deg);
  return cfg;
}

ThroughputConfig throughput_config_from_args(const core::CliArgs& args) {
  ThroughputConfig cfg;
  cfg.events = args.count("events", cfg.events);
  cfg.max_batch = args.count("batch", cfg.max_batch);
  cfg.producers = args.count("producers", 2);  // serve-bench CLI default.
  cfg.queue_capacity = args.count("queue", cfg.queue_capacity);
  if (cfg.max_batch > cfg.queue_capacity) {
    throw core::CliError("--batch cannot exceed --queue");
  }
  cfg.flush_deadline = std::chrono::microseconds(static_cast<long>(
      non_negative_count(args, "deadline-us",
                         static_cast<std::uint64_t>(
                             cfg.flush_deadline.count()))));
  cfg.seed = args.count("seed", cfg.seed);
  cfg.alert_deg = args.number("alert-deg", cfg.alert_deg);
  if (cfg.alert_deg < 0.0) {
    throw core::CliError("--alert-deg must be >= 0 (0 disables alerting)");
  }
  cfg.alert_content = args.number("alert-content", cfg.alert_content);
  check_unit_interval(args, "alert-content", cfg.alert_content,
                      /*allow_zero=*/false, /*allow_one=*/false);
  cfg.background_fraction =
      args.number("background-fraction", cfg.background_fraction);
  check_unit_interval(args, "background-fraction", cfg.background_fraction,
                      /*allow_zero=*/true, /*allow_one=*/true);
  return cfg;
}

}  // namespace adapt::serve
