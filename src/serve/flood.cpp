#include "serve/flood.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/require.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
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
  // own subset of the rings.  Detector-side fields still come from
  // synthetic_ring, so the NN feature extractors see realistic inputs.
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

double ms_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Sorts `values` in place and returns the element at rank
/// floor(p * (n - 1)); 0 for an empty set.
double percentile(std::span<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1))];
}

/// Replays events [0, n) from `producers` threads, each calling
/// `submit(i)` over one contiguous slice, and joins them.
template <typename Submit>
void fan_out_producers(std::size_t n, std::size_t producers,
                       const Submit& submit) {
  std::vector<std::thread> threads;
  const std::size_t per = (n + producers - 1) / producers;
  for (std::size_t p = 0; p < producers; ++p) {
    const std::size_t lo = p * per;
    const std::size_t hi = std::min(n, lo + per);
    if (lo >= hi) break;
    threads.emplace_back([&submit, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) submit(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// A report with one row per stream id, the wall time, events/s for
/// `processed` events, and each stream's and the aggregate p50/p99
/// latency from `log`; the callers fill in the counts.
FloodReport summarize(std::size_t streams, double wall_ms,
                      std::uint64_t processed,
                      std::span<const Delivery> log) {
  FloodReport report;
  report.wall_ms = wall_ms;
  report.processed = processed;
  report.events_per_s =
      wall_ms > 0.0 ? static_cast<double>(processed) * 1e3 / wall_ms : 0.0;
  StreamLatencies grouped = group_by_stream(log, streams);
  const std::span<double> all(grouped.samples);
  report.streams.resize(streams);
  for (std::size_t k = 0; k < streams; ++k) {
    StreamFloodReport& s = report.streams[k];
    s.stream_id = static_cast<std::uint32_t>(k);
    const std::span<double> mine = all.subspan(
        grouped.offsets[k], grouped.offsets[k + 1] - grouped.offsets[k]);
    s.p50_latency_ms = percentile(mine, 0.50);
    s.p99_latency_ms = percentile(mine, 0.99);
  }
  report.p50_latency_ms = percentile(all, 0.50);
  report.p99_latency_ms = percentile(all, 0.99);
  return report;
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

StreamLatencies group_by_stream(std::span<const Delivery> log,
                                std::size_t streams) {
  StreamLatencies grouped;
  grouped.offsets.assign(streams + 1, 0);
  for (const Delivery& d : log)
    if (d.stream_id < streams) ++grouped.offsets[d.stream_id + 1];
  for (std::size_t k = 0; k < streams; ++k)
    grouped.offsets[k + 1] += grouped.offsets[k];
  grouped.samples.resize(grouped.offsets[streams]);
  std::vector<std::size_t> next(grouped.offsets.begin(),
                                grouped.offsets.end() - 1);
  for (const Delivery& d : log)
    if (d.stream_id < streams)
      grouped.samples[next[d.stream_id]++] = d.latency_ms;
  return grouped;
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
    // widths: the seeded-random NN d_eta would decalibrate the cones.
    rc.localizer_template.use_served_d_eta = false;
  }

  // The latency log: one slot per submission, indexed by sequence
  // number, so it is sized by the event count, not the stream count.
  // submit() hands out sequence numbers 1..events, each to one
  // request, so concurrent workers write disjoint slots; the log is
  // read only after stop() joins them.
  std::vector<Delivery> log(events.size());
  // Alert times, one slot per stream: a stream alerts at most once,
  // from the worker that owns it, so each slot has one writer.
  std::vector<double> alert_ms(rc.localize ? config.streams : 0);
  StreamRouter router(models, rc,
                      [&log](std::span<const ServeResult> results) {
                        for (const ServeResult& r : results)
                          log[r.sequence - 1] = {r.latency_ms, r.stream_id};
                      });

  // The wall and alert clocks start with the router.
  const auto t0 = std::chrono::steady_clock::now();
  if (rc.localize) {
    router.set_alert_callback(
        [&alert_ms, t0](std::uint32_t stream_id, const AlertInfo&) {
          alert_ms[stream_id] =
              ms_between(t0, std::chrono::steady_clock::now());
        });
  }
  router.start();
  fan_out_producers(events.size(), config.producers, [&](std::size_t i) {
    router.submit(events[i].stream_id, events[i].ring, events[i].polar_deg);
  });
  router.stop();
  const auto t1 = std::chrono::steady_clock::now();

  const StreamRouter::Stats stats = router.stats();
  FloodReport report =
      summarize(config.streams, ms_between(t0, t1), stats.processed, log);
  report.submitted = stats.submitted;
  report.shed = stats.shed;
  report.batches = stats.batches;
  report.mixed_batches = stats.mixed_batches;
  report.degraded = stats.degraded;
  for (const StreamRouter::StreamStats& row : router.stream_stats()) {
    if (row.stream_id >= config.streams) continue;
    StreamFloodReport& s = report.streams[row.stream_id];
    s.submitted = row.submitted;
    s.processed = row.processed;
    s.shed = row.shed;
    s.alert_fired = row.alert_fired;
    if (s.alert_fired) ++report.alerts_fired;
    if (const auto status = router.localizer_status(row.stream_id)) {
      s.alert_rings = status->alert_rings;
      s.alert_radius_deg = status->alert_radius_deg;
      s.alert_ms = alert_ms[row.stream_id];
      s.loc_rings = status->rings_accepted;
      s.loc_skipped = status->rings_skipped_background;
    }
  }
  report.fairness = jain_fairness(report.streams);
  return report;
}

FloodReport measure_per_ring(pipeline::Models models,
                             const FloodConfig& config) {
  ADAPT_REQUIRE(config.streams >= 1, "flood needs at least one stream");
  ADAPT_REQUIRE(config.events >= 1, "flood needs at least one event");
  const std::vector<FloodEvent> events = make_flood_stream(config);

  std::vector<Delivery> log(events.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FloodEvent& e = events[i];
    const auto e0 = std::chrono::steady_clock::now();
    const std::span<const recon::ComptonRing> ring(&e.ring, 1);
    const std::span<const double> polar(&e.polar_deg, 1);
    (void)models.infer_batch(ring, polar);
    log[i] = {ms_between(e0, std::chrono::steady_clock::now()), e.stream_id};
  }
  const auto t1 = std::chrono::steady_clock::now();

  FloodReport report =
      summarize(config.streams, ms_between(t0, t1), events.size(), log);
  report.submitted = events.size();
  report.batches = events.size();
  for (const FloodEvent& e : events) {
    ++report.streams[e.stream_id].submitted;
    ++report.streams[e.stream_id].processed;
  }
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

}  // namespace adapt::serve
