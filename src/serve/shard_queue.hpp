#pragma once

/// \file shard_queue.hpp
/// One shard of the multi-stream serving layer: a bounded MPSC queue
/// that keeps a separate FIFO *per logical stream* and assembles
/// micro-batches by quantum round-robin across the streams resident in
/// the shard.
///
/// Why not one FIFO per shard?  Because a FIFO is exactly how one
/// flooding stream starves its neighbors: at 10:1 skew the hot stream
/// owns ~90% of every batch and the trickle streams' events age behind
/// its backlog.  Here each stream queues into its own ring FIFO and
/// the batch filler cycles streams, taking up to `quantum` requests
/// per visit (deficit round-robin with equal weights — every resident
/// stream gets the same share of every batch it has events for).  The round-robin cursor persists across
/// batches, so fairness holds across flushes, not just within one.
///
/// Admission control (two caps, both shed-oldest *within a stream* so
/// overload stays where it was caused):
///   * per-stream depth cap — a stream at its cap sheds its own oldest
///     request to admit the new one.  A flooding stream therefore
///     absorbs all of its own shedding; trickle streams never pay.
///   * shard capacity — when the whole shard is full (possible only
///     when per_stream_cap * streams > capacity), the deepest stream
///     sheds its oldest.  The deepest stream is by construction the
///     one contributing most to the overload.
/// Every shed is counted per stream and under `serve.stream.shed`.
///
/// Conservation ledger: pushed == popped + shed +
/// resident is checked at teardown in checked builds, and stats() /
/// stream_stats() expose the ledger for the stress suites.
///
/// Thread-safety: any number of producers push; ONE consumer (the
/// router worker that owns this shard) pops.  All state is guarded by
/// the shard mutex — the innermost lock of the serve layer (the leaf
/// of DESIGN.md's ordering): nothing else is acquired while holding it
/// and no callback ever runs under it.

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "serve/request.hpp"

namespace adapt::serve {

struct ShardQueueConfig {
  /// Total requests resident across all streams of this shard.
  std::size_t capacity = 4096;
  /// Per-stream resident cap (admission control).
  std::size_t per_stream_cap = 1024;
  /// Requests taken from one stream per round-robin visit.
  std::size_t quantum = 16;
};

class ShardQueue {
 public:
  explicit ShardQueue(const ShardQueueConfig& config);

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Checks the conservation ledger (checked builds): pushed ==
  /// popped + shed + resident.
  ~ShardQueue();

  /// Producer side; `request.stream_id` selects the sub-queue.
  /// Returns false iff the shard is closed (request dropped and
  /// counted as rejected).  Never blocks: overload sheds (see file
  /// comment), it does not backpressure the readout.  `duplicate`
  /// enqueues a copy right behind the request in the same critical
  /// section (an injected queue fault; the router suppresses it).
  bool push(ServeRequest request, bool duplicate = false);

  /// Consumer side: quantum round-robin batch fill.  Waits up to
  /// `max_wait` for the shard to become non-empty (zero = poll: flush
  /// whatever is visible now);
  /// then appends up to `max_items` requests to `out`, cycling the
  /// resident streams.  Returns the number of requests popped — 0 when
  /// the wait expired on an open-but-empty shard OR the shard is
  /// closed and drained; use drained() to tell them apart.  Within the
  /// batch, each stream's requests stay in stream order (contiguous
  /// runs of at most `quantum`).
  std::size_t pop_batch(std::vector<ServeRequest>& out, std::size_t max_items,
                        std::chrono::microseconds max_wait);

  /// Close the shard: producers are refused from now on; the consumer
  /// drains what is left.
  void close();

  /// True once closed and fully drained — the consumer's exit signal.
  bool drained() const;

  std::size_t depth() const;
  std::size_t stream_depth(std::uint32_t stream_id) const;
  std::size_t capacity() const { return config_.capacity; }
  bool closed() const;

  /// Aggregate conservation ledger (one lock, mutually consistent).
  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t resident = 0;
  };
  Stats stats() const;

  /// Per-stream ledger row.
  struct StreamStats {
    std::uint32_t stream_id = 0;
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t shed = 0;
    std::uint64_t resident = 0;
  };
  /// Snapshot of every stream this shard has ever seen, in first-seen
  /// order (the round-robin order).
  std::vector<StreamStats> stream_stats() const;

  /// Number of distinct streams this shard has ever seen.
  std::size_t stream_count() const;

 private:
  /// Growable power-of-two ring FIFO.  A std::deque here would cost
  /// one malloc+free per request: at sizeof(ServeRequest) == 264 a
  /// libstdc++ deque block (512 bytes) holds a single element.  The
  /// ring doubles geometrically, stays resident once grown (bounded by
  /// per_stream_cap), and steady-state push/pop never touch the
  /// allocator.
  class RequestRing {
   public:
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    void push_back(ServeRequest request) {
      if (count_ == buf_.size()) grow();
      buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(request);
      ++count_;
    }
    ServeRequest pop_front() {
      ServeRequest out = std::move(buf_[head_]);
      head_ = (head_ + 1) & (buf_.size() - 1);
      --count_;
      return out;
    }

   private:
    void grow();
    std::vector<ServeRequest> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Stream {
    std::uint32_t id = 0;
    RequestRing fifo;
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t shed = 0;
  };

  /// Stream for `id`, created on first sight.  Caller holds mutex_.
  Stream& stream_locked(std::uint32_t id) ADAPT_REQUIRES(mutex_);
  /// Shed the oldest request of the deepest stream.  Caller holds
  /// mutex_; the shard must be non-empty.
  void shed_from_deepest_locked() ADAPT_REQUIRES(mutex_);

  const ShardQueueConfig config_;
  mutable core::Mutex mutex_;
  core::CondVar nonempty_;
  std::unordered_map<std::uint32_t, Stream> streams_ ADAPT_GUARDED_BY(mutex_);
  /// First-seen stream order; the round-robin cursor walks this.
  /// Cached node pointers (stable for unordered_map) so the per-visit
  /// walk in pop_batch — which touches every resident stream, mostly
  /// empty ones under high stream counts — costs a deref, not a hash
  /// lookup.
  std::vector<Stream*> rr_order_ ADAPT_GUARDED_BY(mutex_);
  std::size_t rr_cursor_ ADAPT_GUARDED_BY(mutex_) = 0;
  std::size_t size_ ADAPT_GUARDED_BY(mutex_) = 0;
  bool closed_ ADAPT_GUARDED_BY(mutex_) = false;
  std::uint64_t pushed_ ADAPT_GUARDED_BY(mutex_) = 0;
  std::uint64_t popped_ ADAPT_GUARDED_BY(mutex_) = 0;
  std::uint64_t shed_ ADAPT_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ ADAPT_GUARDED_BY(mutex_) = 0;
};

}  // namespace adapt::serve
