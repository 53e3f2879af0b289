#include "serve/throughput.hpp"

#include <algorithm>
#include <vector>

#include "core/require.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "serve/load_generator.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::serve {

namespace {

struct Event {
  recon::ComptonRing ring;
  double polar_deg = 0.0;
};

std::vector<Event> make_stream(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<Event> events(n);
  for (Event& e : events) {
    e.ring = synthetic_ring(rng);
    e.polar_deg = rng.uniform(0.0, 90.0);
  }
  return events;
}

/// Synthetic burst for the alert mode: rings whose cones are
/// consistent with one source direction (eta = axis . source + noise)
/// mixed with a fraction of pure background cones.  Detector-side
/// fields still come from synthetic_ring so the NN feature extractors
/// see realistic inputs.
std::vector<Event> make_burst_stream(std::size_t n,
                                     const ThroughputConfig& config) {
  core::Rng rng(config.seed);
  const core::Vec3 source =
      core::from_spherical(core::deg_to_rad(config.source_polar_deg),
                           core::deg_to_rad(config.source_azimuth_deg));
  std::vector<Event> events(n);
  for (Event& e : events) {
    e.ring = synthetic_ring(rng);
    e.ring.axis = rng.isotropic_direction();
    e.ring.d_eta = config.source_d_eta;
    if (rng.uniform() < config.background_fraction) {
      e.ring.eta = rng.uniform(-1.0, 1.0);
    } else {
      e.ring.eta = std::clamp(
          e.ring.axis.dot(source) + rng.normal(0.0, config.source_d_eta),
          -1.0, 1.0);
    }
    e.polar_deg = rng.uniform(0.0, 90.0);
  }
  return events;
}

}  // namespace

ThroughputReport measure_serve_throughput(pipeline::Models models,
                                          const ThroughputConfig& config) {
  ADAPT_REQUIRE(config.events >= 1, "need at least one event");
  ADAPT_REQUIRE(config.producers >= 1, "need at least one producer");
  const bool alert_mode = config.alert_deg > 0.0;
  const std::vector<Event> events =
      alert_mode ? make_burst_stream(config.events, config)
                 : make_stream(config.events, config.seed);

  // One stream on one shard: the per-stream cap is the queue depth.
  RouterConfig rc;
  rc.num_shards = 1;
  rc.num_workers = 1;
  rc.shard_capacity = config.queue_capacity;
  rc.per_stream_cap = config.queue_capacity;
  rc.max_batch = config.max_batch;
  rc.flush_deadline = config.flush_deadline;
  rc.degrade_watermark = config.degrade_watermark;
  rc.degrade_when_saturated = config.degrade_when_saturated;
  if (alert_mode) {
    rc.localize = true;
    rc.localizer_template.localizer.resolution_deg = config.loc_resolution_deg;
    rc.localizer_template.alert_radius_deg = config.alert_deg;
    rc.localizer_template.alert_content = config.alert_content;
    rc.localizer_template.check_every = config.alert_check_every;
    // Synthetic-model benches localize with the stream's own analytic
    // widths; the seeded-random NN d_eta would decalibrate the cones.
    rc.localizer_template.use_served_d_eta = false;
  }

  // The sink runs on the single worker thread, so a plain vector is
  // safe; it is read only after stop() joins the worker.
  std::vector<double> latencies;
  latencies.reserve(config.events);
  StreamRouter router(models, rc, [&](std::span<const ServeResult> results) {
    for (const ServeResult& r : results) latencies.push_back(r.latency_ms);
  });

  // The alert clock starts with the router: alert_wall_ms is the
  // end-to-end "how long until we could have alerted" number.
  const auto t0 = std::chrono::steady_clock::now();
  double alert_wall_ms = 0.0;
  router.set_alert_callback([&alert_wall_ms, t0](std::uint32_t,
                                                 const AlertInfo&) {
    alert_wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  });
  router.start();
  fan_out_producers(events.size(), config.producers, [&](std::size_t i) {
    router.submit(0, events[i].ring, events[i].polar_deg);
  });
  router.stop();
  const auto t1 = std::chrono::steady_clock::now();

  const StreamRouter::Stats stats = router.stats();
  ThroughputReport report;
  report.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  report.processed = stats.processed;
  report.batches = stats.batches;
  report.shed = stats.shed;
  report.degraded = stats.degraded;
  report.events_per_s = report.wall_ms > 0.0
                            ? static_cast<double>(stats.processed) * 1e3 /
                                  report.wall_ms
                            : 0.0;
  report.p50_latency_ms = percentile(latencies, 0.50);
  report.p99_latency_ms = percentile(latencies, 0.99);
  if (const auto status = router.localizer_status(0)) {
    report.alert_fired = status->alert_fired;
    report.alert_rings = status->alert_rings;
    report.alert_radius_deg = status->alert_radius_deg;
    report.alert_wall_ms = alert_wall_ms;
    report.last_radius_deg = status->last_radius_deg;
    report.loc_rings = status->rings_accepted;
    report.loc_skipped = status->rings_skipped_background;
  }
  return report;
}

ThroughputReport measure_per_ring_baseline(pipeline::Models models,
                                           const ThroughputConfig& config) {
  ADAPT_REQUIRE(config.events >= 1, "need at least one event");
  const std::vector<Event> events = make_stream(config.events, config.seed);

  std::vector<double> latencies;
  latencies.reserve(events.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const Event& e : events) {
    const auto e0 = std::chrono::steady_clock::now();
    const std::span<const recon::ComptonRing> ring(&e.ring, 1);
    const std::span<const double> polar(&e.polar_deg, 1);
    (void)models.classify_background_batch(ring, polar);
    (void)models.predict_deta_batch(ring, polar);
    latencies.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - e0)
                            .count());
  }
  const auto t1 = std::chrono::steady_clock::now();

  ThroughputReport report;
  report.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  report.processed = events.size();
  report.batches = events.size();
  report.events_per_s =
      report.wall_ms > 0.0
          ? static_cast<double>(events.size()) * 1e3 / report.wall_ms
          : 0.0;
  report.p50_latency_ms = percentile(latencies, 0.50);
  report.p99_latency_ms = percentile(latencies, 0.99);
  return report;
}

}  // namespace adapt::serve
