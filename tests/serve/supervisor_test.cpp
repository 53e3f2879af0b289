#include "serve/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "core/contract.hpp"
#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::serve {
namespace {

using namespace std::chrono_literals;

// Owns the model pair, the supervised router, and an ordered capture
// of everything the sink delivers.
class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest()
      : background_(synthetic_background_net_int8(1)),
        deta_(synthetic_deta_net(2)) {}

  SupervisorConfig fast_config() {
    SupervisorConfig cfg;
    cfg.router.shard_capacity = 256;
    cfg.router.per_stream_cap = 256;
    cfg.router.max_batch = 8;
    cfg.router.degrade_when_saturated = false;
    cfg.max_retries = 2;
    cfg.retry_backoff = std::chrono::microseconds(50);
    cfg.watchdog_interval = 5ms;
    cfg.stall_timeout = 60ms;
    return cfg;
  }

  void make_supervisor(SupervisorConfig cfg) {
    pipeline::Models models;
    models.background = &background_;
    models.deta = &deta_;
    supervisor_ = std::make_unique<Supervisor>(
        models, cfg, [this](std::span<const ServeResult> results) {
          std::lock_guard<std::mutex> lock(results_mutex_);
          for (const auto& r : results) results_.push_back(r);
        });
  }

  std::size_t delivered_count() {
    std::lock_guard<std::mutex> lock(results_mutex_);
    return results_.size();
  }

  std::vector<ServeResult> delivered() {
    std::lock_guard<std::mutex> lock(results_mutex_);
    return results_;
  }

  // Poll until `n` results reached the sink; the shard is small and
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

  std::uint64_t submit_one() {
    return supervisor_->submit(synthetic_ring(rng_), 30.0);
  }

  pipeline::BackgroundNet background_;
  pipeline::DEtaNet deta_;
  core::Rng rng_{77};
  std::unique_ptr<Supervisor> supervisor_;
  std::mutex results_mutex_;
  std::vector<ServeResult> results_;
};

TEST_F(SupervisorTest, TransientFaultInVeryFirstBatchRecoversInvisibly) {
  // The retry path must work before any healthy batch has ever run —
  // no warm-up state may be assumed.
  fault::Injector injector(5);
  make_supervisor(fast_config());
  supervisor_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  injector.arm_transient(1);

  supervisor_->start();
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(1));
  supervisor_->stop();

  const auto results = delivered();
  EXPECT_FALSE(results[0].fallback);
  const SupervisorStats stats = supervisor_->stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.transient_recovered, 1u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

TEST_F(SupervisorTest, PersistentFaultInVeryFirstBatchFallsBackFlagged) {
  fault::Injector injector(6);
  SupervisorConfig cfg = fast_config();
  make_supervisor(cfg);
  supervisor_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  injector.arm_persistent(cfg.max_retries + 1);

  supervisor_->start();
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(1));
  supervisor_->stop();

  const auto results = delivered();
  EXPECT_TRUE(results[0].fallback);
  EXPECT_TRUE(std::isfinite(results[0].d_eta));
  const SupervisorStats stats = supervisor_->stats();
  EXPECT_EQ(stats.retries, cfg.max_retries);
  EXPECT_EQ(stats.fallback_batches, 1u);
  EXPECT_EQ(stats.delivered_fallback, 1u);
  // A forward failure is not model corruption: health stays green.
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

TEST_F(SupervisorTest, BothModelsCorruptSimultaneouslyFallsBackNotCrash) {
  fault::Injector injector(7);
  make_supervisor(fast_config());
  supervisor_->start();

  // One SEU in each resident model, landed between batches.
  fault::Injector::BitFlip flip;
  std::vector<std::vector<float>> fp32_snapshot;
  supervisor_->with_models_quiesced([&](pipeline::Models& models) {
    fp32_snapshot = models.deta->model()->snapshot_weights();
    flip = injector.flip_int8_weight_bit(*models.background->int8_model());
    injector.corrupt_fp32_weight(*models.deta->model());
  });

  supervisor_->health_tick();
  SupervisorStats stats = supervisor_->stats();
  EXPECT_EQ(stats.checksum_failures, 2u);
  EXPECT_EQ(stats.state, HealthState::kDegraded);
  EXPECT_EQ(stats.degraded_entered, 1u);

  // Service continues analytically, every result flagged.
  for (int i = 0; i < 4; ++i) EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(4));
  for (const auto& r : delivered()) EXPECT_TRUE(r.fallback);

  // Repair both models and re-arm their reference digests.
  supervisor_->with_models_quiesced([&](pipeline::Models& models) {
    fault::Injector::flip_back(*models.background->int8_model(), flip);
    models.deta->model()->restore_weights(fp32_snapshot);
  });
  supervisor_->restore_background(&background_);
  supervisor_->restore_deta(&deta_);
  EXPECT_EQ(supervisor_->state(), HealthState::kRecovering);

  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(5));
  supervisor_->stop();

  stats = supervisor_->stats();
  EXPECT_FALSE(delivered().back().fallback);
  EXPECT_EQ(stats.restores, 2u);
  EXPECT_EQ(stats.delivered_fallback, 4u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
  EXPECT_EQ(stats.healthy_entered, 1u);
}

TEST_F(SupervisorTest, NoDegradedResultEmittedAfterModelRestored) {
  // Recovery-ordering invariant: once restore_* returns (with the
  // degraded window drained first), nothing delivered afterwards may
  // carry the fallback flag.
  fault::Injector injector(8);
  make_supervisor(fast_config());
  supervisor_->start();

  const auto flip = [&] {
    fault::Injector::BitFlip f;
    supervisor_->with_models_quiesced([&](pipeline::Models& models) {
      f = injector.flip_int8_weight_bit(*models.background->int8_model());
    });
    return f;
  }();
  supervisor_->health_tick();
  ASSERT_EQ(supervisor_->state(), HealthState::kDegraded);

  for (int i = 0; i < 5; ++i) EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(5));  // Drain the degraded window...

  supervisor_->with_models_quiesced([&](pipeline::Models& models) {
    fault::Injector::flip_back(*models.background->int8_model(), flip);
  });
  supervisor_->restore_background(&background_);  // ...then restore.

  for (int i = 0; i < 10; ++i) EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(15));
  supervisor_->stop();

  const auto results = delivered();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(results[i].fallback) << "degraded-window result " << i;
  }
  for (std::size_t i = 5; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].fallback) << "post-restore result " << i;
  }
  const SupervisorStats stats = supervisor_->stats();
  EXPECT_EQ(stats.delivered_fallback, 5u);
  EXPECT_EQ(stats.state, HealthState::kHealthy);
}

TEST_F(SupervisorTest, InadmissibleRingRejectedAtSubmit) {
  make_supervisor(fast_config());
  supervisor_->start();

  recon::ComptonRing ring = synthetic_ring(rng_);
  ring.hit1.energy = std::nan("");
  EXPECT_EQ(supervisor_->submit(ring, 30.0), 0u);

  ring = synthetic_ring(rng_);
  ring.eta = 1.5;  // Out-of-range cosine.
  EXPECT_EQ(supervisor_->submit(ring, 30.0), 0u);

  // A valid ring with a non-finite polar guess is equally refused.
  EXPECT_EQ(supervisor_->submit(synthetic_ring(rng_), std::nan("")), 0u);

  supervisor_->stop();
  const SupervisorStats stats = supervisor_->stats();
  EXPECT_EQ(stats.input_rejected, 3u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(delivered_count(), 0u);
}

TEST_F(SupervisorTest, QueueDropAndDuplicateFaultsAbsorbed) {
  make_supervisor(fast_config());
  int submit_index = 0;
  supervisor_->set_queue_fault_hook([&submit_index]() {
    return submit_index++ == 0 ? QueueFault::kDrop : QueueFault::kDuplicate;
  });
  supervisor_->start();

  EXPECT_EQ(submit_one(), 0u);  // Dropped at the handoff.
  EXPECT_NE(submit_one(), 0u);  // Enqueued twice, delivered once.
  ASSERT_TRUE(wait_delivered(1));
  supervisor_->stop();

  const SupervisorStats stats = supervisor_->stats();
  EXPECT_EQ(stats.queue_drops, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(delivered_count(), 1u);
}

TEST_F(SupervisorTest, WatchdogRestartsStalledWorkerAndServiceResumes) {
  fault::Injector injector(9);
  make_supervisor(fast_config());
  supervisor_->set_forward_hook(
      [&injector](std::size_t n) { injector.on_forward_attempt(n); });
  supervisor_->start();

  injector.arm_stall(250ms);  // Far past the 60 ms stall timeout.
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(1));

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (supervisor_->stats().watchdog_restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(supervisor_->stats().watchdog_restarts, 1u);

  // The replacement worker serves normally.
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(2));
  supervisor_->stop();
  EXPECT_FALSE(delivered().back().fallback);
}

// Regression for a bug the thread-safety annotations surfaced: the old
// try_health_tick checked try_lock(), UNLOCKED, then called
// health_tick() — which blocks on state_mutex_.  The engine holds
// state_mutex_ for the entire forward, so a watchdog calling the old
// try_health_tick during a stalled forward would block on the very
// mutex the stall holds, freezing the thread whose job is to detect
// the stall.  The fixed version runs the tick under the try-acquired
// lock and returns false — promptly — when the worker has it.
TEST_F(SupervisorTest, TryHealthTickDoesNotBlockWhileForwardHoldsStateMutex) {
  std::atomic<bool> in_forward{false};
  std::atomic<bool> release_forward{false};
  SupervisorConfig cfg = fast_config();
  cfg.watchdog_interval = 0ms;  // No watchdog: this test IS the watchdog.
  make_supervisor(cfg);
  // The hook runs under state_mutex_, standing in for the forward.
  supervisor_->set_forward_hook([&](std::size_t) {
    in_forward = true;
    while (!release_forward) std::this_thread::sleep_for(1ms);
  });

  supervisor_->start();
  EXPECT_NE(submit_one(), 0u);
  const auto entry_deadline = std::chrono::steady_clock::now() + 5s;
  while (!in_forward && std::chrono::steady_clock::now() < entry_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(in_forward.load()) << "forward hook never entered";

  // state_mutex_ is held by the (simulated) stalled forward: the tick
  // must refuse, not wait.  Bound the call to rule out blocking.
  const auto t0 = std::chrono::steady_clock::now();
  const bool ticked = supervisor_->try_health_tick();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(ticked);
  EXPECT_LT(elapsed, 1s) << "try_health_tick blocked on a held state_mutex_";

  release_forward = true;
  ASSERT_TRUE(wait_delivered(1));
  supervisor_->stop();
  // Idle supervisor: the tick acquires and actually runs.
  EXPECT_TRUE(supervisor_->try_health_tick());
  EXPECT_EQ(supervisor_->stats().state, HealthState::kHealthy);
}

// Regression for an annotation-surfaced bug: deliver() used to invoke
// the user sink while holding sink_mutex_.  A sink that reenters
// submit() during an injected-duplicate round takes router_mutex_ ->
// sink_mutex_ (the duplicate registration), and sink_mutex_ is not
// recursive — the worker thread self-deadlocked.  deliver() now
// releases sink_mutex_ before the sink runs, so a reentrant sink must
// complete.
TEST_F(SupervisorTest, ReentrantSinkSubmittingDuplicateDoesNotDeadlock) {
  std::atomic<bool> reentered{false};
  pipeline::Models models;
  models.background = &background_;
  models.deta = &deta_;
  supervisor_ = std::make_unique<Supervisor>(
      models, fast_config(), [this, &reentered](std::span<const ServeResult> results) {
        {
          std::lock_guard<std::mutex> lock(results_mutex_);
          for (const auto& r : results) results_.push_back(r);
        }
        if (!reentered.exchange(true)) {
          core::Rng rng(102);
          EXPECT_NE(supervisor_->submit(synthetic_ring(rng), 30.0), 0u);
        }
      });
  supervisor_->set_queue_fault_hook([] { return QueueFault::kDuplicate; });

  supervisor_->start();
  EXPECT_NE(submit_one(), 0u);
  ASSERT_TRUE(wait_delivered(2));
  supervisor_->stop();

  EXPECT_TRUE(reentered.load());
  EXPECT_EQ(supervisor_->stats().delivered, 2u);
}

// The router contract (supervisor.hpp): the sink's scratch buffer is
// confined to one worker thread, so a multi-worker router is refused.
TEST_F(SupervisorTest, RejectsRouterWithMoreThanOneWorker) {
  SupervisorConfig cfg = fast_config();
  cfg.router.num_shards = 2;
  cfg.router.num_workers = 2;
  EXPECT_THROW(make_supervisor(cfg), core::ContractViolation);
}

// ...and router-side localizers would fold injected duplicates before
// the sink can suppress them, so `localize` is refused too.
TEST_F(SupervisorTest, RejectsRouterWithPerStreamLocalizers) {
  SupervisorConfig cfg = fast_config();
  cfg.router.localize = true;
  EXPECT_THROW(make_supervisor(cfg), core::ContractViolation);
}

}  // namespace
}  // namespace adapt::serve
