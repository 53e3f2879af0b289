#include "serve/stream_localizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::serve {
namespace {

struct Batch {
  std::vector<ServeRequest> requests;
  std::vector<ServeResult> results;
};

/// One observed batch of source-consistent cones, sequences continuing
/// from `next_sequence`.
Batch make_batch(core::Rng& rng, const core::Vec3& source, std::size_t n,
                 double d_eta, std::uint64_t& next_sequence) {
  Batch b;
  for (std::size_t i = 0; i < n; ++i) {
    ServeRequest q;
    q.ring = synthetic_ring(rng);
    q.ring.axis = rng.isotropic_direction();
    q.ring.eta = std::clamp(
        q.ring.axis.dot(source) + rng.normal(0.0, d_eta), -1.0, 1.0);
    q.ring.d_eta = d_eta;
    q.sequence = next_sequence;
    ServeResult r;
    r.sequence = next_sequence++;
    r.d_eta = d_eta;
    b.requests.push_back(q);
    b.results.push_back(r);
  }
  return b;
}

StreamLocalizerConfig analytic_config() {
  StreamLocalizerConfig cfg;
  cfg.use_served_d_eta = false;
  cfg.check_every = 16;
  cfg.min_rings = 8;
  return cfg;
}

TEST(StreamLocalizer, AlertFiresExactlyOnce) {
  core::Rng rng(21);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(35.0),
                                            core::deg_to_rad(120.0));
  StreamLocalizerConfig cfg = analytic_config();
  cfg.alert_radius_deg = 5.0;
  int fired = 0;
  AlertInfo seen;
  StreamLocalizer loc(cfg, [&](const AlertInfo& info) {
    ++fired;
    seen = info;
  });

  std::uint64_t seq = 1;
  for (int batch = 0; batch < 8; ++batch) {
    const Batch b = make_batch(rng, s, 32, 0.05, seq);
    loc.observe(b.requests, b.results);
  }

  EXPECT_EQ(fired, 1);
  const StreamLocalizer::Status status = loc.status();
  EXPECT_TRUE(status.alert_fired);
  EXPECT_EQ(status.alert_rings, seen.n_rings);
  EXPECT_GT(seen.n_rings, 0u);
  EXPECT_LE(seen.radius_deg, cfg.alert_radius_deg);
  EXPECT_DOUBLE_EQ(seen.content, cfg.alert_content);
  // The posterior peak at the crossing points at the source.
  EXPECT_LT(core::rad_to_deg(core::angle_between(seen.direction, s)), 3.0);
  // Radius keeps being tracked after the alert.
  EXPECT_GE(status.radius_checks, 2u);
  EXPECT_GT(status.last_radius_deg, 0.0);
}

TEST(StreamLocalizer, NoAlertWhenDisabledButTrajectoryRecorded) {
  core::Rng rng(22);
  const core::Vec3 s = core::from_spherical(0.5, 1.0);
  StreamLocalizerConfig cfg = analytic_config();
  cfg.alert_radius_deg = 0.0;  // disabled
  int fired = 0;
  StreamLocalizer loc(cfg, [&](const AlertInfo&) { ++fired; });

  std::uint64_t seq = 1;
  for (int batch = 0; batch < 4; ++batch) {
    const Batch b = make_batch(rng, s, 32, 0.05, seq);
    loc.observe(b.requests, b.results);
  }

  EXPECT_EQ(fired, 0);
  const StreamLocalizer::Status status = loc.status();
  EXPECT_FALSE(status.alert_fired);
  EXPECT_GT(status.radius_checks, 0u);
  EXPECT_GT(status.last_radius_deg, 0.0);
  // The posterior is still queryable on demand.
  EXPECT_LT(core::rad_to_deg(core::angle_between(loc.peak(), s)), 3.0);
}

TEST(StreamLocalizer, BackgroundFlaggedRingsAreSkipped) {
  core::Rng rng(23);
  const core::Vec3 s = core::from_spherical(0.4, 0.2);
  StreamLocalizer loc(analytic_config());

  std::uint64_t seq = 1;
  Batch b = make_batch(rng, s, 16, 0.05, seq);
  for (std::size_t i = 0; i < b.results.size(); i += 2)
    b.results[i].is_background = 1;
  loc.observe(b.requests, b.results);

  const StreamLocalizer::Status status = loc.status();
  EXPECT_EQ(status.rings_accepted, 8u);
  EXPECT_EQ(status.rings_skipped_background, 8u);
}

TEST(StreamLocalizer, ServedDEtaOverridesRingWidth) {
  core::Rng rng(24);
  const core::Vec3 s = core::from_spherical(0.4, 0.2);
  StreamLocalizerConfig cfg = analytic_config();
  cfg.use_served_d_eta = true;

  StreamLocalizer loc(cfg);
  std::uint64_t seq = 1;
  Batch b = make_batch(rng, s, 8, 0.05, seq);
  // The rings themselves carry an unusable width; the *served* width
  // is valid.  With use_served_d_eta the accumulator must see the
  // served one and accept every ring.
  for (auto& q : b.requests) q.ring.d_eta = 0.0;
  loc.observe(b.requests, b.results);
  EXPECT_EQ(loc.status().rings_accepted, 8u);
  EXPECT_EQ(loc.status().rings_rejected, 0u);
}

TEST(StreamLocalizer, UnusableRingsCountedAsRejected) {
  core::Rng rng(25);
  const core::Vec3 s = core::from_spherical(0.4, 0.2);
  StreamLocalizer loc(analytic_config());  // analytic widths
  std::uint64_t seq = 1;
  Batch b = make_batch(rng, s, 4, 0.05, seq);
  b.requests[1].ring.d_eta = 0.0;
  b.requests[2].ring.d_eta = std::numeric_limits<double>::quiet_NaN();
  loc.observe(b.requests, b.results);
  const StreamLocalizer::Status status = loc.status();
  EXPECT_EQ(status.rings_accepted, 2u);
  EXPECT_EQ(status.rings_rejected, 2u);
}

TEST(StreamLocalizer, MismatchedSpansRejected) {
  core::Rng rng(26);
  StreamLocalizer loc(analytic_config());
  std::uint64_t seq = 1;
  Batch b = make_batch(rng, {0.0, 0.0, 1.0}, 2, 0.05, seq);
  const std::span<const ServeResult> truncated(b.results.data(), 1);
  EXPECT_THROW(loc.observe(b.requests, truncated), std::invalid_argument);
}

TEST(StreamLocalizer, ConfigValidated) {
  StreamLocalizerConfig bad = analytic_config();
  bad.alert_radius_deg = -1.0;
  EXPECT_THROW(StreamLocalizer{bad}, std::invalid_argument);
  bad = analytic_config();
  bad.alert_content = 1.0;
  EXPECT_THROW(StreamLocalizer{bad}, std::invalid_argument);
  bad = analytic_config();
  bad.check_every = 0;
  EXPECT_THROW(StreamLocalizer{bad}, std::invalid_argument);
}

TEST(StreamLocalizer, EndToEndThroughStreamRouter) {
  // Full path: producer -> shard -> micro-batch -> per-stream localizer
  // -> alert, with real (synthetic-weight) models serving the batches.
  pipeline::BackgroundNet background = synthetic_background_net_int8(1);
  pipeline::DEtaNet deta = synthetic_deta_net(2);
  pipeline::Models models;
  models.background = &background;
  models.deta = &deta;

  RouterConfig rc;
  rc.num_shards = 1;
  rc.num_workers = 1;
  rc.shard_capacity = 4096;
  rc.per_stream_cap = 4096;
  rc.max_batch = 32;
  rc.localize = true;
  rc.localizer_template = analytic_config();
  rc.localizer_template.alert_radius_deg = 5.0;
  std::atomic<int> fired{0};
  AlertInfo alert;  // Written on the worker, read after stop() joins it.
  StreamRouter router(models, rc, [](std::span<const ServeResult>) {});
  router.set_alert_callback([&](std::uint32_t, const AlertInfo& info) {
    ++fired;
    alert = info;
  });
  router.start();

  core::Rng rng(27);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(30.0), 1.0);
  for (int i = 0; i < 1500; ++i) {
    recon::ComptonRing ring = synthetic_ring(rng);
    ring.axis = rng.isotropic_direction();
    ring.eta = std::clamp(ring.axis.dot(s) + rng.normal(0.0, 0.05),
                          -1.0, 1.0);
    ring.d_eta = 0.05;
    router.submit(0, ring, 30.0);
  }
  router.stop();

  const auto status = router.localizer_status(0);
  ASSERT_TRUE(status.has_value());
  // Every processed event reached the localizer exactly once.
  EXPECT_EQ(status->rings_accepted + status->rings_skipped_background +
                status->rings_rejected,
            router.stats().processed);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(status->alert_fired);
  EXPECT_LT(core::rad_to_deg(core::angle_between(alert.direction, s)), 3.0);
}

TEST(StreamLocalizer, SupervisorFiltersInjectedDuplicates) {
  // An injected queue duplicate is served twice by the worker but must
  // reach the router's sink — and thus a localizer fed from it —
  // exactly once: a double-counted ring would skew the posterior.
  pipeline::Models models;  // null models: analytic path, no veto
  RouterConfig cfg;
  cfg.num_shards = 1;
  cfg.num_workers = 1;  // one worker: the sink below is not thread-safe
  cfg.max_batch = 8;

  core::Rng rng(28);
  const core::Vec3 s = core::from_spherical(0.6, 0.3);
  const std::uint64_t n = 40;
  std::vector<ServeRequest> requests(n);
  for (ServeRequest& q : requests) {
    q.ring = synthetic_ring(rng);
    q.ring.axis = rng.isotropic_direction();
    q.ring.eta = std::clamp(q.ring.axis.dot(s) + rng.normal(0.0, 0.05),
                            -1.0, 1.0);
    q.ring.d_eta = 0.05;
  }

  // The stream id carries each ring's index through the router, so the
  // sink can pair every delivered result with its ring.
  StreamLocalizer loc(analytic_config());
  std::vector<ServeRequest> fed;
  StreamRouter router(models, cfg,
                      [&](std::span<const ServeResult> results) {
                        fed.clear();
                        for (const ServeResult& r : results)
                          fed.push_back(requests[r.stream_id]);
                        loc.observe(fed, results);
                      });
  router.set_queue_fault_hook([] { return QueueFault::kDuplicate; });
  router.start();
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_NE(router.submit(i, requests[i].ring, 30.0), 0u);
  router.stop();

  const StreamRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.duplicates_suppressed, n);
  EXPECT_EQ(stats.processed, n);
  // At-most-once into the localizer as well.
  EXPECT_EQ(loc.status().rings_accepted, n);
}

// Regression for an annotation-surfaced bug: observe() used to invoke
// on_alert_ while still holding mutex_, so an alert callback touching
// the localizer's own query API — the natural thing for an alert
// handler to do — self-deadlocked on the non-recursive mutex.  The
// callback now fires after the lock is released (the ADAPT_EXCLUDES
// contract on observe/status/credible_radius_deg/peak encodes exactly
// this), so a reentrant handler must complete and see the post-alert
// state.
TEST(StreamLocalizer, AlertCallbackMayReenterQueryApi) {
  core::Rng rng(29);
  const core::Vec3 s = core::from_spherical(0.7, -0.4);
  StreamLocalizerConfig cfg = analytic_config();
  cfg.alert_radius_deg = 5.0;
  int fired = 0;
  StreamLocalizer* self = nullptr;
  StreamLocalizer loc(cfg, [&](const AlertInfo& info) {
    ++fired;
    // Reentrant queries from inside the alert handler.
    const StreamLocalizer::Status status = self->status();
    EXPECT_TRUE(status.alert_fired);
    EXPECT_EQ(status.alert_rings, info.n_rings);
    EXPECT_GT(self->credible_radius_deg(cfg.alert_content), 0.0);
    EXPECT_LT(core::rad_to_deg(core::angle_between(self->peak(), s)), 5.0);
  });
  self = &loc;

  std::uint64_t seq = 1;
  for (int batch = 0; batch < 8; ++batch) {
    const Batch b = make_batch(rng, s, 32, 0.05, seq);
    loc.observe(b.requests, b.results);
  }
  EXPECT_EQ(fired, 1);
}

/// One stream's alert outcome, as pinned by SeededAlertOutcomesArePinned.
struct AlertPin {
  bool fired;
  std::uint64_t rings;  ///< Accepted rings at the crossing (0: none).
  long alert_pixel;     ///< Fine pixel of the alert peak (-1: none).
  long final_pixel;     ///< Fine pixel of the peak after the feed.
  double radius_deg;    ///< Radius that crossed (0: none).
};

TEST(StreamLocalizer, SeededAlertOutcomesArePinned) {
  // 32 seeded streams on the serve path's 2 deg grid, from sharp and
  // clean to wide and background-heavy, so some alert early, some late
  // and some never.  Recorded before the band fold switched to the
  // table-driven residual: that change may move excess sums by ~1e-12
  // but must not move any alert decision, alert ring count or peak
  // pixel, nor an alert radius by more than 1e-9 deg.
  constexpr int kStreams = 32;
  constexpr int kBatches = 40;
  constexpr std::size_t kBatchRings = 16;
  const AlertPin want[kStreams] = {
    {true, 64, 1456, 1456, 1.5941691282152688},
    {true, 64, 226, 283, 2.51388303318747},
    {true, 192, 373, 200, 2.7539583029318386},
    {true, 448, 47, 45, 2.9703616018811716},
    {true, 128, 945, 945, 2.7537495852247935},
    {true, 192, 922, 726, 2.9731054997365383},
    {true, 384, 1821, 1959, 2.982717328926062},
    {false, 0, -1, 2466, 0},
    {true, 64, 324, 325, 1.947202799518569},
    {true, 64, 44, 44, 2.4995302815513396},
    {true, 192, 403, 337, 2.5098217683627362},
    {true, 384, 5168, 215, 2.256529187217339},
    {true, 128, 91, 90, 2.9555537454341767},
    {true, 192, 89, 88, 2.9555537454341767},
    {true, 448, 2395, 2546, 2.9814397839053304},
    {false, 0, -1, 291, 0},
    {true, 64, 83, 53, 1.9326043590333852},
    {true, 64, 1428, 1555, 2.5173064661568749},
    {true, 192, 1623, 1371, 2.519718280468545},
    {true, 320, 17, 6, 2.9466645165026004},
    {true, 128, 2316, 2168, 2.760926709617022},
    {true, 192, 1918, 2057, 2.9836097980459559},
    {true, 320, 1359, 1486, 2.9779867370189006},
    {false, 0, -1, 2028, 0},
    {true, 64, 245, 302, 1.5901021335559413},
    {true, 64, 1659, 1659, 2.519718280468545},
    {true, 192, 32, 56, 2.9564856007232199},
    {true, 192, 5148, 1000, 1.9542116005112671},
    {true, 128, 153, 201, 2.7469060574247397},
    {true, 192, 1151, 1039, 2.9753714697939726},
    {true, 384, 1769, 1769, 2.981754323045029},
    {false, 0, -1, 2029, 0},
  };
  std::vector<AlertPin> got_all;
  bool all_match = true;
  for (int k = 0; k < kStreams; ++k) {
    core::Rng rng(5000 + static_cast<std::uint64_t>(k));
    const core::Vec3 source = core::from_spherical(
        core::deg_to_rad(rng.uniform(0.0, 60.0)), rng.uniform(-3.0, 3.0));
    const double d_eta = 0.08 + 0.03 * static_cast<double>(k % 8);
    const double background = 0.3 * static_cast<double>(k % 4);

    StreamLocalizerConfig cfg = analytic_config();
    cfg.localizer.resolution_deg = 2.0;
    cfg.check_every = 64;
    cfg.alert_radius_deg = 3.0;
    AlertInfo seen;
    StreamLocalizer loc(cfg, [&](const AlertInfo& info) { seen = info; });
    std::uint64_t seq = 1;
    for (int batch = 0; batch < kBatches; ++batch) {
      Batch b = make_batch(rng, source, kBatchRings, d_eta, seq);
      for (ServeRequest& q : b.requests)
        if (rng.uniform() < background) q.ring.eta = rng.uniform(-1.0, 1.0);
      loc.observe(b.requests, b.results);
    }

    const loc::SkyGrid grid(cfg.localizer.resolution_deg,
                            cfg.localizer.max_polar_deg);
    const auto pixel = [&grid](const core::Vec3& dir) {
      const auto p = grid.pixel_of(dir);
      return p ? static_cast<long>(*p) : -2L;  // -2: outside the grid
    };
    const StreamLocalizer::Status status = loc.status();
    const AlertPin got{status.alert_fired, status.alert_rings,
                       status.alert_fired ? pixel(seen.direction) : -1L,
                       pixel(loc.peak()), status.alert_radius_deg};
    const AlertPin& w = want[k];
    const bool match = got.fired == w.fired && got.rings == w.rings &&
                       got.alert_pixel == w.alert_pixel &&
                       got.final_pixel == w.final_pixel &&
                       std::abs(got.radius_deg - w.radius_deg) <= 1e-9;
    EXPECT_TRUE(match) << "stream " << k;
    all_match = all_match && match;
    got_all.push_back(got);
  }
  if (all_match) return;
  std::printf("Observed outcomes, one row per stream:\n");
  for (const AlertPin& g : got_all)
    std::printf("    {%s, %llu, %ld, %ld, %.17g},\n",
                g.fired ? "true" : "false",
                static_cast<unsigned long long>(g.rings), g.alert_pixel,
                g.final_pixel, g.radius_deg);
}

}  // namespace
}  // namespace adapt::serve
