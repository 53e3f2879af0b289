#include "serve/stream_localizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "serve/stream_router.hpp"
#include "serve/supervisor.hpp"
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
  // reach the supervisor's sink — and thus a localizer fed from it —
  // exactly once: a double-counted ring would skew the posterior.
  pipeline::Models models;  // null models: analytic path, no veto
  SupervisorConfig cfg;
  cfg.router.max_batch = 8;
  cfg.watchdog_interval = std::chrono::milliseconds(0);

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
  Supervisor supervisor(models, cfg,
                        [&](std::span<const ServeResult> results) {
                          fed.clear();
                          for (const ServeResult& r : results)
                            fed.push_back(requests[r.stream_id]);
                          loc.observe(fed, results);
                        });
  supervisor.set_queue_fault_hook([] { return QueueFault::kDuplicate; });
  supervisor.start();
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_NE(supervisor.submit(requests[i].ring, 30.0, i), 0u);
  supervisor.stop();

  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.duplicates_suppressed, n);
  EXPECT_EQ(stats.delivered, n);
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

}  // namespace
}  // namespace adapt::serve
