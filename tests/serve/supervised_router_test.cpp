// The router's recovery policies (stream_router.hpp, "Supervised
// recovery"): checksum quarantine, retry-then-fallback, ingress
// hygiene, duplicate suppression and the stall watchdog — first on the
// one-shard, one-worker shape the fault matrix serves through, then on
// the multi-worker, per-stream-localizer topology of the clean serve
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::serve {
namespace {

using namespace std::chrono_literals;

// Owns the model pair, the router, and an ordered capture of
// everything the sink delivers.
class SupervisedRouter : public ::testing::Test {
 protected:
  SupervisedRouter()
      : background_(synthetic_background_net_int8(1)),
        deta_(synthetic_deta_net(2)) {}

  static RouterConfig one_worker_config() {
    RouterConfig cfg;
    cfg.num_shards = 1;
    cfg.num_workers = 1;
    cfg.shard_capacity = 256;
    cfg.per_stream_cap = 256;
    cfg.max_batch = 8;
    cfg.degrade_when_saturated = false;
    return cfg;
  }

  static RouterConfig two_worker_config() {
    RouterConfig cfg = one_worker_config();
    cfg.num_shards = 2;
    cfg.num_workers = 2;
    cfg.shard_capacity = 2048;
    cfg.per_stream_cap = 2048;
    return cfg;
  }

  void make_router(RouterConfig cfg) {
    router_ = std::make_unique<StreamRouter>(
        pipeline::Models{&background_, &deta_}, cfg,
        [this](std::span<const ServeResult> results) { collect(results); });
  }

  void collect(std::span<const ServeResult> results) {
    std::lock_guard<std::mutex> lock(results_mutex_);
    results_.insert(results_.end(), results.begin(), results.end());
  }

  std::size_t delivered_count() {
    std::lock_guard<std::mutex> lock(results_mutex_);
    return results_.size();
  }

  std::vector<ServeResult> delivered() {
    std::lock_guard<std::mutex> lock(results_mutex_);
    return results_;
  }

  // Poll until `n` results reached the sink; the shards are small and
  // the idle wait short, so 5 s only trips on a real hang.
  ::testing::AssertionResult wait_delivered(std::size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (delivered_count() >= n) return ::testing::AssertionSuccess();
      std::this_thread::sleep_for(1ms);
    }
    return ::testing::AssertionFailure()
           << "delivered " << delivered_count() << "/" << n << " before "
           << "timeout";
  }

  ::testing::AssertionResult wait_stalls(std::uint64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (router_->stats().watchdog_stalls >= n)
        return ::testing::AssertionSuccess();
      std::this_thread::sleep_for(1ms);
    }
    return ::testing::AssertionFailure()
           << "watchdog counted " << router_->stats().watchdog_stalls << "/"
           << n << " stalls before timeout";
  }

  std::uint64_t submit_one(std::uint32_t stream_id = 0) {
    return router_->submit(stream_id, synthetic_ring(rng_), 30.0);
  }

  fault::Injector::BitFlip flip_background_bit(fault::Injector& injector) {
    fault::Injector::BitFlip flip;
    router_->with_models_quiesced([&](pipeline::Models& models) {
      flip = injector.flip_int8_weight_bit(*models.background->int8_model());
    });
    return flip;
  }

  pipeline::BackgroundNet background_;
  pipeline::DEtaNet deta_;
  core::Rng rng_{77};
  std::unique_ptr<StreamRouter> router_;
  std::mutex results_mutex_;
  std::vector<ServeResult> results_;
};

TEST_F(SupervisedRouter, TransientFaultInVeryFirstBatchRecoversInvisibly) {
  // The retry path must work before any healthy batch has ever run —
  // no warm-up state may be assumed.
  fault::Injector injector(5);
  make_router(one_worker_config());
  router_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  injector.arm_transient(1);

  router_->start();
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(1));
  router_->stop();

  EXPECT_FALSE(delivered()[0].fallback);
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.transient_recovered, 1u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.batch_errors, 0u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

TEST_F(SupervisedRouter, PersistentFaultInVeryFirstBatchFallsBackFlagged) {
  fault::Injector injector(6);
  make_router(one_worker_config());
  router_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  injector.arm_persistent(kMaxRetries + 1);

  router_->start();
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(1));
  router_->stop();

  const ServeResult result = delivered()[0];
  EXPECT_TRUE(result.fallback);
  EXPECT_EQ(result.is_background, 0);
  EXPECT_TRUE(std::isfinite(result.d_eta));
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.retries, kMaxRetries);
  EXPECT_EQ(stats.fallback_batches, 1u);
  EXPECT_EQ(stats.batch_errors, 1u);
  EXPECT_EQ(stats.fallback, 1u);
  // A forward failure is not model corruption: health stays green.
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

TEST_F(SupervisedRouter, BothModelsCorruptSimultaneouslyFallsBackNotCrash) {
  fault::Injector injector(7);
  make_router(one_worker_config());
  router_->start();

  // One SEU in each resident model, landed between batches.
  fault::Injector::BitFlip flip;
  std::vector<std::vector<float>> fp32_snapshot;
  router_->with_models_quiesced([&](pipeline::Models& models) {
    fp32_snapshot = models.deta->model()->snapshot_weights();
    flip = injector.flip_int8_weight_bit(*models.background->int8_model());
    injector.corrupt_fp32_weight(*models.deta->model());
  });

  router_->health_tick();
  StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.checksum_failures, 2u);
  EXPECT_EQ(stats.state, HealthState::kDegraded);
  EXPECT_EQ(stats.degraded_entered, 1u);

  // Service continues analytically, every result flagged.
  for (int i = 0; i < 4; ++i) EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(4));
  for (const auto& r : delivered()) EXPECT_TRUE(r.fallback);

  // Repair both models and re-arm their reference digests.
  router_->with_models_quiesced([&](pipeline::Models& models) {
    fault::Injector::flip_back(*models.background->int8_model(), flip);
    models.deta->model()->restore_weights(fp32_snapshot);
  });
  router_->restore_background(&background_);
  router_->restore_deta(&deta_);
  EXPECT_EQ(router_->stats().state, HealthState::kRecovering);

  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(5));
  router_->stop();

  stats = router_->stats();
  EXPECT_FALSE(delivered().back().fallback);
  EXPECT_EQ(stats.restores, 2u);
  EXPECT_EQ(stats.fallback, 4u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
  EXPECT_EQ(stats.healthy_entered, 1u);
}

TEST_F(SupervisedRouter, NoFallbackResultEmittedAfterModelRestored) {
  // Recovery-ordering invariant: once restore_* returns (with the
  // degraded window drained first), nothing delivered afterwards may
  // carry the fallback flag.
  fault::Injector injector(8);
  make_router(one_worker_config());
  router_->start();

  const fault::Injector::BitFlip flip = flip_background_bit(injector);
  router_->health_tick();
  ASSERT_EQ(router_->stats().state, HealthState::kDegraded);

  for (int i = 0; i < 5; ++i) EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(5));  // Drain the degraded window...

  router_->with_models_quiesced([&](pipeline::Models& models) {
    fault::Injector::flip_back(*models.background->int8_model(), flip);
  });
  router_->restore_background(&background_);  // ...then restore.

  for (int i = 0; i < 10; ++i) EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(15));
  router_->stop();

  const auto results = delivered();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(results[i].fallback) << "degraded-window result " << i;
  }
  for (std::size_t i = 5; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].fallback) << "post-restore result " << i;
  }
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.fallback, 5u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

TEST_F(SupervisedRouter, InadmissibleRingRejectedAtSubmit) {
  make_router(one_worker_config());
  router_->start();

  recon::ComptonRing ring = synthetic_ring(rng_);
  ring.hit1.energy = std::nan("");
  EXPECT_EQ(router_->submit(0, ring, 30.0), 0u);

  ring = synthetic_ring(rng_);
  ring.eta = 1.5;  // Out-of-range cosine.
  EXPECT_EQ(router_->submit(0, ring, 30.0), 0u);

  // A valid ring with a non-finite polar guess is equally refused.
  EXPECT_EQ(router_->submit(0, synthetic_ring(rng_), std::nan("")), 0u);

  router_->stop();
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.input_rejected, 3u);
  EXPECT_EQ(stats.submitted, 0u);  // No sequence number was spent.
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(delivered_count(), 0u);
}

TEST_F(SupervisedRouter, QueueDropAndDuplicateFaultsAbsorbed) {
  make_router(one_worker_config());
  int submit_index = 0;
  router_->set_queue_fault_hook([&submit_index]() {
    return submit_index++ == 0 ? QueueFault::kDrop : QueueFault::kDuplicate;
  });
  router_->start();

  EXPECT_EQ(submit_one(), 0u);  // Dropped at the handoff.
  EXPECT_NE(submit_one(), 0u);  // Enqueued twice, delivered once.
  ASSERT_TRUE(wait_delivered(1));
  router_->stop();

  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.queue_drops, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.processed, 1u);
  EXPECT_EQ(delivered_count(), 1u);
}

// A sink that re-enters submit() while the submit takes the duplicate
// path must complete: no router lock is held across the sink, and the
// duplicate needs no lock beyond its shard's.
TEST_F(SupervisedRouter, ReentrantSinkSubmittingDuplicateDoesNotDeadlock) {
  std::atomic<bool> reentered{false};
  router_ = std::make_unique<StreamRouter>(
      pipeline::Models{&background_, &deta_}, one_worker_config(),
      [this, &reentered](std::span<const ServeResult> results) {
        collect(results);
        if (!reentered.exchange(true)) {
          core::Rng rng(102);
          EXPECT_NE(router_->submit(0, synthetic_ring(rng), 30.0), 0u);
        }
      });
  router_->set_queue_fault_hook([] { return QueueFault::kDuplicate; });

  router_->start();
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(2));
  router_->stop();

  EXPECT_TRUE(reentered.load());
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.processed, 2u);
  EXPECT_EQ(stats.duplicates_suppressed, 2u);
}

TEST_F(SupervisedRouter, WatchdogCountsStalledForwardAndServiceContinues) {
  fault::Injector injector(9);
  make_router(one_worker_config());
  router_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  router_->start();

  injector.arm_stall(kStallTimeout + 150ms);
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_stalls(1));
  ASSERT_TRUE(wait_delivered(1));

  // The same worker serves on once the forward returns; one wedged
  // batch is one stall, however long it sat.
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(2));
  router_->stop();
  EXPECT_FALSE(delivered().back().fallback);
  EXPECT_EQ(router_->stats().watchdog_stalls, 1u);
}

// A wedged forward must not block ingress: once the watchdog has
// counted the stall, a submit from another thread returns at once —
// detection stops and joins nothing, and submit takes only its shard
// lock.
TEST_F(SupervisedRouter, SubmitReturnsPromptlyWhileForwardIsWedged) {
  fault::Injector injector(11);
  make_router(one_worker_config());
  router_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  router_->start();

  injector.arm_stall(600ms);
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_stalls(1));

  std::atomic<bool> returned{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&] {
    core::Rng rng(103);
    EXPECT_NE(router_->submit(0, synthetic_ring(rng), 30.0), 0u);
    returned = true;
  });
  while (!returned && std::chrono::steady_clock::now() - t0 < 100ms)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(returned.load()) << "submit blocked behind the wedged forward";
  producer.join();
  ASSERT_TRUE(wait_delivered(2));
  router_->stop();
}

// (a) The watchdog reads one heartbeat per worker: a wedge on the worker
// that owns shard 0 is counted while the worker that owns shard 1 keeps
// delivering — a router-wide batch count would hide it.
TEST_F(SupervisedRouter, StallOnOneWorkerDetectedWhileOtherShardDelivers) {
  std::atomic<bool> stalled{false};
  std::atomic<bool> in_stall{false};
  make_router(two_worker_config());
  router_->set_forward_hook([&](std::size_t) {
    if (stalled.exchange(true)) return;
    in_stall = true;
    std::this_thread::sleep_for(kStallTimeout + 550ms);
    in_stall = false;
  });
  router_->start();

  EXPECT_NE(submit_one(/*stream_id=*/0), 0u);  // Shard 0, worker 0.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!in_stall && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(in_stall.load()) << "stream 0's forward never wedged";

  for (int i = 0; i < 20; ++i) EXPECT_NE(submit_one(/*stream_id=*/1), 0u);
  ASSERT_TRUE(wait_delivered(20));
  ASSERT_TRUE(wait_stalls(1));
  EXPECT_TRUE(in_stall.load()) << "detection must land inside the wedge";
  for (const ServeResult& r : delivered()) EXPECT_EQ(r.stream_id, 1u);

  ASSERT_TRUE(wait_delivered(21));
  router_->stop();
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.watchdog_stalls, 1u);
  EXPECT_EQ(stats.processed, 21u);
  EXPECT_EQ(stats.fallback, 0u);
}

// (b) Duplicate suppression with two workers, per-stream localizers,
// and four producers on one stream with every submit duplicated: each
// ring is delivered, counted and folded exactly once.
TEST_F(SupervisedRouter, ConcurrentDuplicatingProducersFoldEachRingOnce) {
  constexpr std::uint32_t kStream = 3;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  RouterConfig cfg = two_worker_config();
  cfg.localize = true;
  cfg.localizer_template.localizer.resolution_deg = 2.0;
  cfg.localizer_template.check_every = 32;
  cfg.localizer_template.feed_background = true;
  cfg.localizer_template.use_served_d_eta = false;
  make_router(cfg);
  router_->set_queue_fault_hook([] { return QueueFault::kDuplicate; });
  router_->start();

  const core::Vec3 source = core::from_spherical(0.6, 0.3);
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      core::Rng rng(200 + p);
      for (int i = 0; i < kPerProducer; ++i) {
        recon::ComptonRing ring = synthetic_ring(rng);
        ring.axis = rng.isotropic_direction();
        ring.eta = std::clamp(ring.axis.dot(source) + rng.normal(0.0, 0.05),
                              -1.0, 1.0);
        ring.d_eta = 0.05;
        if (router_->submit(kStream, ring, 30.0) != 0) ++admitted;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  router_->stop();

  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(admitted.load(), std::uint64_t{kProducers * kPerProducer});
  EXPECT_EQ(delivered_count(), admitted.load());
  EXPECT_EQ(stats.processed, admitted.load());
  EXPECT_EQ(stats.duplicates_suppressed, admitted.load());  // == injected
  std::set<std::uint64_t> sequences;
  for (const ServeResult& r : delivered()) sequences.insert(r.sequence);
  EXPECT_EQ(sequences.size(), admitted.load());
  const auto status = router_->localizer_status(kStream);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->rings_accepted, admitted.load());
}

// (c) Checksum quarantine across workers: an SEU flipped under
// with_models_quiesced and found by health_tick flags every result on
// every shard until restore, and none after it.
TEST_F(SupervisedRouter, SeuFlagsEveryShardUntilRestore) {
  fault::Injector injector(12);
  make_router(two_worker_config());
  router_->start();
  const auto submit_round = [&](std::size_t delivered_before) {
    for (std::uint32_t stream = 0; stream < 4; ++stream)
      for (int i = 0; i < 6; ++i) EXPECT_NE(submit_one(stream), 0u);
    return wait_delivered(delivered_before + 24);
  };

  ASSERT_TRUE(submit_round(0));
  const fault::Injector::BitFlip flip = flip_background_bit(injector);
  router_->health_tick();
  ASSERT_EQ(router_->stats().state, HealthState::kDegraded);
  ASSERT_TRUE(submit_round(24));
  router_->with_models_quiesced([&](pipeline::Models& models) {
    fault::Injector::flip_back(*models.background->int8_model(), flip);
  });
  router_->restore_background(&background_);
  ASSERT_TRUE(submit_round(48));
  router_->stop();

  const auto results = delivered();
  ASSERT_EQ(results.size(), 72u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].fallback, i >= 24 && i < 48) << "result " << i;
  }
  const StreamRouter::Stats stats = router_->stats();
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.fallback, 24u);
  EXPECT_EQ(stats.healthy_entered, 1u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

}  // namespace
}  // namespace adapt::serve
