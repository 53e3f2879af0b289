#include "serve/stream_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/contract.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::serve {
namespace {

struct Event {
  recon::ComptonRing ring;
  double polar_deg = 0.0;
};

std::vector<Event> make_events(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<Event> events(n);
  for (Event& e : events) {
    e.ring = synthetic_ring(rng);
    e.polar_deg = rng.uniform(0.0, 90.0);
  }
  return events;
}

struct Outputs {
  std::uint8_t is_background = 0;
  double d_eta = 0.0;
  bool degraded = false;
  bool fallback = false;
};

// The equivalence contract (stream_router.hpp): with one stream, one
// shard, and one worker, the router's served outputs are BIT-IDENTICAL
// to one direct Models::infer_batch over the same rings.  The router's
// batch splits follow timing, but infer_batch is bit-identical across
// splits (the batch-equivalence guarantee), so per-sequence outputs
// must match exactly.  Degrade is off and the shard is deep enough to
// never shed, so no timing-dependent policy can fork the outputs.
TEST(StreamRouter, SingleStreamBitIdenticalToDirectInferBatch) {
  constexpr std::size_t kEvents = 3000;
  auto background = synthetic_background_net_int8(0xB6);
  auto deta = synthetic_deta_net(0xDE);
  const pipeline::Models models{&background, &deta};
  const std::vector<Event> events = make_events(kEvents, 99);

  std::vector<recon::ComptonRing> rings;
  std::vector<double> polar;
  for (const Event& e : events) {
    rings.push_back(e.ring);
    polar.push_back(e.polar_deg);
  }
  const pipeline::Models::BatchInference direct =
      models.infer_batch(rings, polar, 1e-4, 2.0);
  ASSERT_TRUE(direct.used_deta_net);

  std::map<std::uint64_t, Outputs> router_out;
  RouterConfig rc;
  rc.num_shards = 1;
  rc.num_workers = 1;
  rc.shard_capacity = 32768;
  rc.per_stream_cap = 32768;
  rc.max_batch = 64;
  rc.degrade_when_saturated = false;
  StreamRouter router(models, rc, [&](std::span<const ServeResult> results) {
    for (const ServeResult& r : results)
      router_out[r.sequence] = {r.is_background, r.d_eta, r.degraded,
                                r.fallback};
  });
  router.start();
  for (const Event& e : events) router.submit(0, e.ring, e.polar_deg);
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.mixed_batches, 0u);
  EXPECT_EQ(stats.streams, 1u);
  EXPECT_EQ(stats.processed, kEvents);

  // Sequences start at 1 in submit order.
  ASSERT_EQ(router_out.size(), kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    const Outputs& r = router_out[i + 1];
    EXPECT_EQ(r.is_background, direct.is_background[i]) << "ring " << i;
    EXPECT_EQ(r.d_eta, direct.d_eta[i]) << "ring " << i;  // Bit-exact.
    EXPECT_FALSE(r.degraded) << "ring " << i;
    EXPECT_FALSE(r.fallback) << "ring " << i;
  }
}

// One stream, one shard, one worker, everything collected on the
// worker thread.
struct Collected {
  std::vector<ServeResult> results;

  ResultSink sink() {
    return [this](std::span<const ServeResult> batch) {
      results.insert(results.end(), batch.begin(), batch.end());
    };
  }
  void sort_by_sequence() {
    std::sort(results.begin(), results.end(),
              [](const ServeResult& a, const ServeResult& b) {
                return a.sequence < b.sequence;
              });
  }
};

RouterConfig single_stream_config(std::size_t capacity,
                                  std::size_t max_batch) {
  RouterConfig rc;
  rc.num_shards = 1;
  rc.num_workers = 1;
  rc.shard_capacity = capacity;
  rc.per_stream_cap = capacity;
  rc.max_batch = max_batch;
  return rc;
}

TEST(StreamRouter, NullModelsServeAnalyticPassthrough) {
  RouterConfig rc = single_stream_config(4096, 64);
  rc.d_eta_floor = 0.01;
  rc.d_eta_cap = 0.5;
  Collected collected;
  StreamRouter router(pipeline::Models{}, rc, collected.sink());
  router.start();

  core::Rng rng(7);
  std::vector<recon::ComptonRing> rings;
  for (int i = 0; i < 20; ++i) rings.push_back(synthetic_ring(rng));
  for (const auto& ring : rings) router.submit(0, ring, 45.0);
  router.stop();

  ASSERT_EQ(collected.results.size(), rings.size());
  collected.sort_by_sequence();
  for (std::size_t i = 0; i < rings.size(); ++i) {
    EXPECT_EQ(collected.results[i].is_background, 0);
    EXPECT_EQ(collected.results[i].d_eta,
              std::clamp(rings[i].d_eta, rc.d_eta_floor, rc.d_eta_cap));
    EXPECT_FALSE(collected.results[i].degraded);
    EXPECT_FALSE(collected.results[i].fallback);
  }
}

TEST(StreamRouter, DegradesToAnalyticDEtaUnderBacklog) {
  auto background = synthetic_background_net(21);
  auto deta = synthetic_deta_net(22);
  const pipeline::Models models{&background, &deta};

  // Watermark so low that any leftover backlog after a pop degrades
  // the next batch; the backlog is guaranteed by submitting everything
  // before start().
  RouterConfig rc = single_stream_config(256, 8);
  rc.degrade_watermark = 0.01;

  Collected collected;
  StreamRouter router(models, rc, collected.sink());
  core::Rng rng(9);
  std::vector<recon::ComptonRing> rings;
  for (std::size_t i = 0; i < 64; ++i) {
    rings.push_back(synthetic_ring(rng));
    router.submit(0, rings.back(), 30.0);
  }
  router.start();
  router.stop();

  const auto stats = router.stats();
  EXPECT_EQ(stats.processed, 64u);
  EXPECT_GT(stats.degraded, 0u);

  // Degraded results carry exactly the analytic clamp, not a network
  // output.
  collected.sort_by_sequence();
  ASSERT_EQ(collected.results.size(), rings.size());
  std::size_t degraded_seen = 0;
  for (std::size_t i = 0; i < rings.size(); ++i) {
    if (!collected.results[i].degraded) continue;
    ++degraded_seen;
    EXPECT_EQ(collected.results[i].d_eta,
              std::clamp(rings[i].d_eta, rc.d_eta_floor, rc.d_eta_cap));
  }
  EXPECT_EQ(degraded_seen, stats.degraded);
}

TEST(StreamRouter, DegradeCanBeDisabled) {
  auto background = synthetic_background_net(21);
  auto deta = synthetic_deta_net(22);
  RouterConfig rc = single_stream_config(256, 8);
  rc.degrade_watermark = 0.01;
  rc.degrade_when_saturated = false;

  Collected collected;
  StreamRouter router(pipeline::Models{&background, &deta}, rc,
                      collected.sink());
  core::Rng rng(9);
  for (std::size_t i = 0; i < 64; ++i)
    router.submit(0, synthetic_ring(rng), 30.0);
  router.start();
  router.stop();
  EXPECT_EQ(router.stats().processed, 64u);
  EXPECT_EQ(router.stats().degraded, 0u);
  for (const ServeResult& r : collected.results) EXPECT_FALSE(r.degraded);
}

TEST(StreamRouter, StreamPastItsCapShedsOldest) {
  // One stream past its cap, everything enqueued before the worker
  // starts: all but the newest `per_stream_cap` requests must be shed,
  // none lost silently.  The shard itself has room to spare, so the
  // per-stream cap is what sheds.
  RouterConfig rc = single_stream_config(64, 8);
  rc.per_stream_cap = 8;
  rc.degrade_watermark = 1.0;

  Collected collected;
  StreamRouter router(pipeline::Models{}, rc, collected.sink());
  core::Rng rng(13);
  constexpr std::uint64_t kEvents = 40;
  for (std::uint64_t i = 0; i < kEvents; ++i)
    router.submit(0, synthetic_ring(rng), 10.0);
  router.start();
  router.stop();

  const auto stats = router.stats();
  EXPECT_EQ(stats.shed, kEvents - rc.per_stream_cap);
  EXPECT_EQ(stats.processed, rc.per_stream_cap);
  // The survivors are the NEWEST sequences.
  ASSERT_EQ(collected.results.size(), rc.per_stream_cap);
  for (const ServeResult& r : collected.results)
    EXPECT_GT(r.sequence, kEvents - rc.per_stream_cap);
}

TEST(StreamRouter, ThrowingEngineFallsBackFlagged) {
  RouterConfig rc = single_stream_config(256, 8);
  rc.d_eta_floor = 0.01;
  rc.d_eta_cap = 0.5;
  Collected collected;
  StreamRouter router(pipeline::Models{}, rc, collected.sink());
  router.set_engine([](std::span<const recon::ComptonRing>,
                       std::span<const double>, bool) -> BatchOutputs {
    throw std::runtime_error("injected forward failure");
  });
  core::Rng rng(17);
  std::vector<recon::ComptonRing> rings;
  for (std::size_t i = 0; i < 20; ++i) {
    rings.push_back(synthetic_ring(rng));
    router.submit(0, rings.back(), 30.0);
  }
  router.start();
  router.stop();

  // Every batch failed over to the analytic emergency path: no veto,
  // clamped analytic d_eta, every result flagged, every batch counted.
  const auto stats = router.stats();
  EXPECT_EQ(stats.processed, rings.size());
  EXPECT_EQ(stats.fallback, rings.size());
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batch_errors, stats.batches);
  collected.sort_by_sequence();
  ASSERT_EQ(collected.results.size(), rings.size());
  for (std::size_t i = 0; i < rings.size(); ++i) {
    EXPECT_TRUE(collected.results[i].fallback);
    EXPECT_EQ(collected.results[i].is_background, 0);
    EXPECT_EQ(collected.results[i].d_eta,
              std::clamp(rings[i].d_eta, rc.d_eta_floor, rc.d_eta_cap));
  }
}

// Satellite regression: skewed arrivals.  One hot stream floods while
// nine trickle streams submit modestly, all on ONE shard so the DRR
// filler and the per-stream caps do all the work.  The engine is
// gated until every submit has landed, which makes the outcome
// deterministic: the hot stream MUST overflow its cap while the
// worker is parked, and the trickle streams (under their cap) must
// sail through untouched.
TEST(StreamRouter, SkewedArrivalsShedOnlyTheHotStream) {
  constexpr std::uint32_t kStreams = 10;
  constexpr std::uint32_t kHot = 0;
  constexpr std::uint64_t kHotEvents = 8000;
  constexpr std::uint64_t kTrickleEvents = 100;
  constexpr std::size_t kPerStreamCap = 256;

  RouterConfig rc;
  rc.num_shards = 1;
  rc.num_workers = 1;
  rc.shard_capacity = 4096;  // > 10 * 256: whole-shard shed never fires.
  rc.per_stream_cap = kPerStreamCap;
  rc.quantum = 8;
  rc.max_batch = 64;
  rc.degrade_when_saturated = false;

  // Per-stream delivery logs, filled on the single worker thread.
  std::vector<std::vector<std::uint64_t>> delivered(kStreams);
  StreamRouter router(pipeline::Models{}, rc,
                      [&](std::span<const ServeResult> results) {
                        for (const ServeResult& r : results)
                          delivered[r.stream_id].push_back(r.sequence);
                      });

  // Gate the first forward until all submissions are in.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  router.set_engine([opened](std::span<const recon::ComptonRing> rings,
                             std::span<const double>, bool) {
    opened.wait();
    BatchOutputs out;
    out.is_background.assign(rings.size(), 0);
    out.d_eta.assign(rings.size(), 0.1);
    return out;
  });
  router.start();

  // Interleave: trickle first so every stream is registered in the
  // shard's round-robin order before the flood starts.
  for (std::uint32_t k = 1; k < kStreams; ++k) {
    for (std::uint64_t i = 0; i < kTrickleEvents; ++i) {
      core::Rng rng(k * 1000 + i);
      router.submit(k, synthetic_ring(rng), 30.0);
    }
  }
  {
    core::Rng rng(7);
    for (std::uint64_t i = 0; i < kHotEvents; ++i)
      router.submit(kHot, synthetic_ring(rng), 30.0);
  }
  gate.set_value();
  router.stop();

  const auto rows = router.stream_stats();
  ASSERT_EQ(rows.size(), kStreams);
  std::uint64_t total_shed = 0;
  std::uint64_t hot_shed = 0;
  for (const auto& row : rows) {
    EXPECT_EQ(row.resident, 0u);  // stop() drains.
    EXPECT_EQ(row.submitted, row.processed + row.shed);
    total_shed += row.shed;
    if (row.stream_id == kHot) {
      hot_shed = row.shed;
      EXPECT_GT(row.shed, 0u);  // The flood pays.
      // The worker was parked for (almost all of) the flood: the hot
      // stream cannot have delivered much more than its resident cap.
      EXPECT_LE(row.processed, kPerStreamCap + rc.max_batch);
    } else {
      // Trickle streams: under their cap, NOTHING shed, everything
      // delivered.
      EXPECT_EQ(row.shed, 0u);
      EXPECT_EQ(row.processed, kTrickleEvents);
    }
  }
  // The hot stream absorbs ALL of the shedding.
  EXPECT_EQ(total_shed, hot_shed);

  // Per-stream delivery order is submit order, for every stream, even
  // though batches mixed streams.
  for (std::uint32_t k = 0; k < kStreams; ++k) {
    EXPECT_TRUE(std::is_sorted(delivered[k].begin(), delivered[k].end()))
        << "stream " << k;
  }
  EXPECT_GT(router.stats().mixed_batches, 0u);
}

// Streams spread across shards and workers: per-stream results still
// arrive in submit order, and the per-stream ledger closes (submitted
// == processed when nothing sheds).
TEST(StreamRouter, MultiShardPreservesPerStreamOrder) {
  constexpr std::uint32_t kStreams = 8;
  constexpr std::uint64_t kPerStream = 500;

  RouterConfig rc;
  rc.num_shards = 4;
  rc.num_workers = 2;
  rc.shard_capacity = 8192;
  rc.per_stream_cap = 4096;
  rc.max_batch = 32;

  std::mutex mu;
  std::vector<std::vector<std::uint64_t>> delivered(kStreams);
  StreamRouter router(pipeline::Models{}, rc,
                      [&](std::span<const ServeResult> results) {
                        // Two workers share this sink; same-stream
                        // calls are serialized but cross-stream calls
                        // race, so the shared structure locks.
                        std::lock_guard<std::mutex> lock(mu);
                        for (const ServeResult& r : results)
                          delivered[r.stream_id].push_back(r.sequence);
                      });
  router.start();
  std::vector<std::thread> producers;
  for (std::uint32_t k = 0; k < kStreams; ++k) {
    producers.emplace_back([&router, k] {
      core::Rng rng(k);
      for (std::uint64_t i = 0; i < kPerStream; ++i)
        router.submit(k, synthetic_ring(rng), 45.0);
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();

  const auto stats = router.stats();
  EXPECT_EQ(stats.processed, kStreams * kPerStream);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.streams, kStreams);
  for (std::uint32_t k = 0; k < kStreams; ++k) {
    ASSERT_EQ(delivered[k].size(), kPerStream) << "stream " << k;
    EXPECT_TRUE(std::is_sorted(delivered[k].begin(), delivered[k].end()))
        << "stream " << k;
  }
}

// Per-stream localizers are independent: a stream fed a coherent
// burst alerts; a stream fed a handful of incoherent rings does not.
TEST(StreamRouter, PerStreamLocalizersAlertIndependently) {
  RouterConfig rc;
  rc.num_shards = 1;
  rc.num_workers = 1;
  rc.shard_capacity = 8192;
  rc.per_stream_cap = 8192;
  rc.localize = true;
  rc.localizer_template.localizer.resolution_deg = 2.0;
  rc.localizer_template.alert_radius_deg = 20.0;  // Generous threshold.
  rc.localizer_template.check_every = 32;
  rc.localizer_template.use_served_d_eta = false;

  std::mutex mu;
  std::vector<std::uint32_t> alerted;
  StreamRouter router(pipeline::Models{}, rc,
                      [](std::span<const ServeResult>) {});
  router.set_alert_callback(
      [&](std::uint32_t stream_id, const AlertInfo& info) {
        std::lock_guard<std::mutex> lock(mu);
        alerted.push_back(stream_id);
        EXPECT_GT(info.n_rings, 0u);
      });
  router.start();

  // Stream 0: a synthetic burst — rings whose cones agree on one
  // source direction.
  {
    core::Rng rng(11);
    const core::Vec3 source =
        core::from_spherical(core::deg_to_rad(40.0), core::deg_to_rad(60.0));
    for (int i = 0; i < 600; ++i) {
      recon::ComptonRing ring = synthetic_ring(rng);
      ring.axis = rng.isotropic_direction();
      ring.d_eta = 0.05;
      ring.eta = std::clamp(ring.axis.dot(source) + rng.normal(0.0, 0.05),
                            -1.0, 1.0);
      router.submit(0, ring, 40.0);
    }
  }
  // Stream 1: too few rings to even reach the first radius check.
  {
    core::Rng rng(12);
    for (int i = 0; i < 4; ++i) router.submit(1, synthetic_ring(rng), 40.0);
  }
  router.stop();

  const auto s0 = router.localizer_status(0);
  const auto s1 = router.localizer_status(1);
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s1.has_value());
  EXPECT_TRUE(s0->alert_fired);
  EXPECT_FALSE(s1->alert_fired);
  EXPECT_EQ(alerted, (std::vector<std::uint32_t>{0}));
  EXPECT_FALSE(router.localizer_status(99).has_value());  // Never seen.
}

TEST(StreamRouter, SubmitAfterStopIsRejected) {
  RouterConfig rc;
  rc.num_shards = 2;
  rc.num_workers = 1;
  StreamRouter router(pipeline::Models{}, rc,
                      [](std::span<const ServeResult>) {});
  router.start();
  core::Rng rng(1);
  const recon::ComptonRing ring = synthetic_ring(rng);
  EXPECT_GT(router.submit(5, ring, 10.0), 0u);
  router.stop();
  EXPECT_EQ(router.submit(5, ring, 10.0), 0u);
  EXPECT_EQ(router.stats().rejected, 1u);
}

TEST(StreamRouter, RejectsInvalidTopology) {
  const auto sink = [](std::span<const ServeResult>) {};
  RouterConfig more_workers_than_shards;
  more_workers_than_shards.num_shards = 2;
  more_workers_than_shards.num_workers = 4;
  EXPECT_THROW(StreamRouter(pipeline::Models{}, more_workers_than_shards,
                            sink),
               core::ContractViolation);
  RouterConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_THROW(StreamRouter(pipeline::Models{}, zero_shards, sink),
               core::ContractViolation);
  RouterConfig batch_over_capacity;
  batch_over_capacity.shard_capacity = 32;
  batch_over_capacity.per_stream_cap = 32;
  batch_over_capacity.max_batch = 64;
  EXPECT_THROW(StreamRouter(pipeline::Models{}, batch_over_capacity, sink),
               core::ContractViolation);
}

}  // namespace
}  // namespace adapt::serve
