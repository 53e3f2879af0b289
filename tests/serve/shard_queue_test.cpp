#include "serve/shard_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/contract.hpp"

namespace adapt::serve {
namespace {

ServeRequest request(std::uint32_t stream, std::uint64_t sequence) {
  ServeRequest r;
  r.stream_id = stream;
  r.sequence = sequence;
  r.enqueued_at = std::chrono::steady_clock::now();
  return r;
}

ShardQueueConfig config(std::size_t capacity, std::size_t per_stream_cap,
                        std::size_t quantum) {
  ShardQueueConfig c;
  c.capacity = capacity;
  c.per_stream_cap = per_stream_cap;
  c.quantum = quantum;
  return c;
}

std::vector<std::uint32_t> stream_ids(const std::vector<ServeRequest>& batch) {
  std::vector<std::uint32_t> out;
  for (const ServeRequest& r : batch) out.push_back(r.stream_id);
  return out;
}

TEST(ShardQueue, SingleStreamPopsInFifoOrder) {
  ShardQueue q(config(16, 16, 4));
  for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_TRUE(q.push(request(7, s)));

  std::vector<ServeRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 16, std::chrono::microseconds(0)), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].stream_id, 7u);
    EXPECT_EQ(batch[i].sequence, i + 1);
  }
}

// The heart of the fairness layer: the batch filler cycles the
// resident streams in first-seen order, taking at most `quantum` per
// visit, so a deep stream cannot own the batch.
TEST(ShardQueue, BatchFillRoundRobinsAcrossStreams) {
  ShardQueue q(config(64, 32, 2));
  // Stream 0 floods 8; streams 1 and 2 trickle 2 each.
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) q.push(request(0, ++seq));
  for (int i = 0; i < 2; ++i) q.push(request(1, ++seq));
  for (int i = 0; i < 2; ++i) q.push(request(2, ++seq));

  std::vector<ServeRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 6, std::chrono::microseconds(0)), 6u);
  // Quantum 2, first-seen order: 2 of stream 0, 2 of stream 1, 2 of
  // stream 2 — NOT 6 of the flooding stream.
  EXPECT_EQ(stream_ids(batch), (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2}));
}

// The round-robin cursor persists across pop_batch calls: the next
// batch resumes where the last one stopped instead of restarting at
// the first-seen stream (which would systematically favor it).
TEST(ShardQueue, RoundRobinCursorPersistsAcrossBatches) {
  ShardQueue q(config(64, 32, 2));
  std::uint64_t seq = 0;
  for (int i = 0; i < 4; ++i) q.push(request(0, ++seq));
  for (int i = 0; i < 4; ++i) q.push(request(1, ++seq));

  std::vector<ServeRequest> first;
  EXPECT_EQ(q.pop_batch(first, 2, std::chrono::microseconds(0)), 2u);
  EXPECT_EQ(stream_ids(first), (std::vector<std::uint32_t>{0, 0}));

  // The cursor moved past stream 0, so the next batch starts at 1.
  std::vector<ServeRequest> second;
  EXPECT_EQ(q.pop_batch(second, 2, std::chrono::microseconds(0)), 2u);
  EXPECT_EQ(stream_ids(second), (std::vector<std::uint32_t>{1, 1}));
}

// Per-stream admission control: a stream at its cap sheds its own
// oldest request; other streams are untouched.
TEST(ShardQueue, StreamAtCapShedsItsOwnOldest) {
  ShardQueue q(config(64, 3, 4));
  q.push(request(1, 100));  // Innocent bystander.
  for (std::uint64_t s = 1; s <= 5; ++s) q.push(request(0, s));

  EXPECT_EQ(q.stream_depth(0), 3u);
  EXPECT_EQ(q.stream_depth(1), 1u);

  const auto rows = q.stream_stats();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].stream_id, 0u);
  EXPECT_EQ(rows[1].shed, 2u);   // Sequences 1 and 2, its own oldest.
  EXPECT_EQ(rows[0].stream_id, 1u);
  EXPECT_EQ(rows[0].shed, 0u);   // The bystander never pays.

  std::vector<ServeRequest> batch;
  q.pop_batch(batch, 16, std::chrono::microseconds(0));
  // Stream 0's survivors are its newest: 3, 4, 5.
  std::vector<std::uint64_t> stream0;
  for (const ServeRequest& r : batch)
    if (r.stream_id == 0) stream0.push_back(r.sequence);
  EXPECT_EQ(stream0, (std::vector<std::uint64_t>{3, 4, 5}));
}

// Whole-shard overload (possible when per-stream caps sum past the
// shard capacity): the DEEPEST stream sheds, not the newcomer.
TEST(ShardQueue, ShardAtCapacityShedsFromDeepestStream) {
  ShardQueue q(config(6, 5, 4));
  for (std::uint64_t s = 1; s <= 5; ++s) q.push(request(0, s));
  q.push(request(1, 100));
  // Shard full (6 resident).  Stream 2's arrival must evict from
  // stream 0 (depth 5), not from stream 1 (depth 1) or itself.
  q.push(request(2, 200));

  EXPECT_EQ(q.depth(), 6u);
  EXPECT_EQ(q.stream_depth(0), 4u);
  EXPECT_EQ(q.stream_depth(1), 1u);
  EXPECT_EQ(q.stream_depth(2), 1u);
  const auto rows = q.stream_stats();
  for (const auto& row : rows) {
    if (row.stream_id == 0) EXPECT_EQ(row.shed, 1u);
    else EXPECT_EQ(row.shed, 0u);
  }
}

TEST(ShardQueue, ZeroWaitPopOnEmptyOpenShardReturnsImmediately) {
  ShardQueue q(config(16, 16, 4));
  std::vector<ServeRequest> batch;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_batch(batch, 16, std::chrono::microseconds(0)), 0u);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  EXPECT_LT(elapsed_ms, 100.0);
  EXPECT_FALSE(q.drained());  // Open: 0 here does NOT mean shutdown.
}

TEST(ShardQueue, CloseRefusesProducersAndDrainsConsumer) {
  ShardQueue q(config(16, 16, 4));
  q.push(request(0, 1));
  q.push(request(0, 2));
  q.close();

  EXPECT_FALSE(q.push(request(0, 3)));
  EXPECT_EQ(q.stats().rejected, 1u);
  EXPECT_FALSE(q.drained());  // Still two resident.

  std::vector<ServeRequest> batch;
  EXPECT_EQ(q.pop_batch(batch, 16, std::chrono::microseconds(0)), 2u);
  EXPECT_TRUE(q.drained());
  EXPECT_EQ(q.pop_batch(batch, 16, std::chrono::microseconds(0)), 0u);
}

// An injected duplicate lands right behind its original, in one
// critical section, so a second producer cannot slip in between; the
// ledger counts both copies.
TEST(ShardQueue, DuplicatePushEnqueuesAdjacentCopy) {
  ShardQueue q(config(16, 16, 8));
  EXPECT_TRUE(q.push(request(4, 1)));
  EXPECT_TRUE(q.push(request(4, 2), /*duplicate=*/true));
  EXPECT_TRUE(q.push(request(4, 3)));
  EXPECT_EQ(q.stats().pushed, 4u);
  EXPECT_EQ(q.stream_depth(4), 4u);

  std::vector<ServeRequest> batch;
  ASSERT_EQ(q.pop_batch(batch, 16, std::chrono::microseconds(0)), 4u);
  std::vector<std::uint64_t> sequences;
  for (const ServeRequest& r : batch) sequences.push_back(r.sequence);
  EXPECT_EQ(sequences, (std::vector<std::uint64_t>{1, 2, 2, 3}));
}

TEST(ShardQueue, BlockingPopWakesOnPush) {
  ShardQueue q(config(16, 16, 4));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.push(request(3, 1));
  });
  std::vector<ServeRequest> batch;
  // Far longer than the producer's delay: the wake must come from the
  // push, not the timeout.
  const std::size_t n = q.pop_batch(batch, 16, std::chrono::seconds(10));
  producer.join();
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(batch[0].stream_id, 3u);
}

TEST(ShardQueue, RejectsInvalidConfig) {
  EXPECT_THROW(ShardQueue(config(0, 1, 1)), core::ContractViolation);
  EXPECT_THROW(ShardQueue(config(8, 0, 1)), core::ContractViolation);
  EXPECT_THROW(ShardQueue(config(8, 9, 1)), core::ContractViolation);
  EXPECT_THROW(ShardQueue(config(8, 8, 0)), core::ContractViolation);
}

// Conservation ledger under multi-producer contention with tiny caps:
// both shed paths (per-stream cap and whole-shard capacity) race the
// consumer's round-robin drain, and every request must still be
// accounted for.  Runs repeatedly under TSan with checked contracts
// in the static-analysis gate.
TEST(ShardQueue, MultiProducerLedgerStress) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  constexpr std::uint32_t kStreams = 8;
  ShardQueue q(config(24, 4, 2));  // Tiny: both shed paths fire.

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const auto stream = static_cast<std::uint32_t>(i % kStreams);
        q.push(request(stream, static_cast<std::uint64_t>(p) * kPerProducer +
                                   i + 1));
      }
    });
  }

  std::atomic<std::uint64_t> delivered{0};
  std::thread consumer([&] {
    std::vector<ServeRequest> batch;
    for (;;) {
      batch.clear();
      const std::size_t n =
          q.pop_batch(batch, 16, std::chrono::microseconds(50));
      if (n > 0) {
        delivered.fetch_add(n, std::memory_order_relaxed);
      } else if (q.drained()) {
        break;
      }
    }
  });

  for (std::thread& t : producers) t.join();
  q.close();
  consumer.join();

  const ShardQueue::Stats stats = q.stats();
  EXPECT_EQ(stats.pushed, kProducers * kPerProducer);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.popped, delivered.load());
  EXPECT_EQ(stats.pushed, stats.popped + stats.shed + stats.resident);

  // The per-stream rows must sum to the aggregate ledger.
  std::uint64_t pushed = 0, popped = 0, shed = 0;
  for (const auto& row : q.stream_stats()) {
    pushed += row.pushed;
    popped += row.popped;
    shed += row.shed;
  }
  EXPECT_EQ(pushed, stats.pushed);
  EXPECT_EQ(popped, stats.popped);
  EXPECT_EQ(shed, stats.shed);
}

}  // namespace
}  // namespace adapt::serve
