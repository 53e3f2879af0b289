#include "serve/shard_queue.hpp"

#include <utility>

#include "core/contract.hpp"
#include "core/require.hpp"
#include "core/telemetry.hpp"

namespace adapt::serve {

namespace tm = core::telemetry;

ShardQueue::ShardQueue(const ShardQueueConfig& config) : config_(config) {
  ADAPT_REQUIRE(config.capacity >= 1, "shard queue needs capacity >= 1");
  ADAPT_REQUIRE(config.per_stream_cap >= 1 &&
                    config.per_stream_cap <= config.capacity,
                "per-stream cap must be in [1, capacity]");
  ADAPT_REQUIRE(config.quantum >= 1, "round-robin quantum must be >= 1");
}

void ShardQueue::RequestRing::grow() {
  std::vector<ServeRequest> next(buf_.empty() ? 8 : buf_.size() * 2);
  for (std::size_t i = 0; i < count_; ++i)
    next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
  buf_ = std::move(next);
  head_ = 0;
}

ShardQueue::~ShardQueue() {
  core::LockGuard lock(mutex_);
  ADAPT_INVARIANT(pushed_ == popped_ + shed_ + size_,
                  "shard queue ledger imbalance at teardown "
                  "(pushed != popped + shed + resident)");
}

ShardQueue::Stream& ShardQueue::stream_locked(std::uint32_t id) {
  const auto it = streams_.find(id);
  if (it != streams_.end()) return it->second;
  Stream& s = streams_[id];
  s.id = id;
  rr_order_.push_back(&s);  // Node pointers are stable under rehash.
  return s;
}

void ShardQueue::shed_from_deepest_locked() {
  Stream* deepest = nullptr;
  for (Stream* s : rr_order_) {
    if (deepest == nullptr || s->fifo.size() > deepest->fifo.size())
      deepest = s;
  }
  ADAPT_INVARIANT(deepest != nullptr && !deepest->fifo.empty(),
                  "shed on an empty shard");
  deepest->fifo.pop_front();
  ++deepest->shed;
  ++shed_;
  --size_;
}

bool ShardQueue::push(ServeRequest request, bool duplicate) {
  static tm::Counter& shed_metric = tm::counter("serve.stream.shed");
  {
    core::LockGuard lock(mutex_);
    if (closed_) {
      ++rejected_;
      return false;
    }
    Stream& s = stream_locked(request.stream_id);
    for (int copies = duplicate ? 2 : 1; copies > 0; --copies) {
      if (s.fifo.size() >= config_.per_stream_cap) {
        // Per-stream admission: the stream at its cap sheds ITS OWN
        // oldest request.  The flood pays for the flood.
        s.fifo.pop_front();
        ++s.shed;
        ++shed_;
        --size_;
        shed_metric.add();
      } else if (size_ >= config_.capacity) {
        // Whole-shard overload: the deepest stream (the one most
        // responsible for the backlog) sheds its oldest.
        shed_from_deepest_locked();
        shed_metric.add();
      }
      s.fifo.push_back(copies > 1 ? request : std::move(request));
      ++s.pushed;
      ++pushed_;
      ++size_;
    }
  }
  nonempty_.notify_one();
  return true;
}

std::size_t ShardQueue::pop_batch(std::vector<ServeRequest>& out,
                                  std::size_t max_items,
                                  std::chrono::microseconds max_wait) {
  ADAPT_REQUIRE(max_items >= 1, "pop_batch needs max_items >= 1");
  core::UniqueLock lock(mutex_);
  if (size_ == 0 && !closed_ && max_wait.count() > 0) {
    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    while (size_ == 0 && !closed_) {
      if (nonempty_.wait_until(lock, deadline) == std::cv_status::timeout)
        break;
    }
  }
  if (size_ == 0) return 0;  // Timed out (open) or closed-and-drained.

  // Quantum round-robin fill: cycle the resident streams starting at
  // the persistent cursor, taking up to `quantum` per visit, until the
  // batch is full or the shard is empty.  The cursor advances past
  // every visited stream so the NEXT batch starts where this one
  // stopped — fairness across batches, not just within one.
  std::size_t taken = 0;
  while (taken < max_items && size_ > 0) {
    Stream& s = *rr_order_[rr_cursor_ % rr_order_.size()];
    rr_cursor_ = (rr_cursor_ + 1) % rr_order_.size();
    std::size_t k = config_.quantum;
    if (k > s.fifo.size()) k = s.fifo.size();
    if (k > max_items - taken) k = max_items - taken;
    for (std::size_t i = 0; i < k; ++i) out.push_back(s.fifo.pop_front());
    s.popped += k;
    taken += k;
    size_ -= k;
  }
  popped_ += taken;
  return taken;
}

void ShardQueue::close() {
  {
    core::LockGuard lock(mutex_);
    closed_ = true;
  }
  nonempty_.notify_all();
}

bool ShardQueue::drained() const {
  core::LockGuard lock(mutex_);
  return closed_ && size_ == 0;
}

std::size_t ShardQueue::depth() const {
  core::LockGuard lock(mutex_);
  return size_;
}

std::size_t ShardQueue::stream_depth(std::uint32_t stream_id) const {
  core::LockGuard lock(mutex_);
  const auto it = streams_.find(stream_id);
  return it == streams_.end() ? 0 : it->second.fifo.size();
}

bool ShardQueue::closed() const {
  core::LockGuard lock(mutex_);
  return closed_;
}

ShardQueue::Stats ShardQueue::stats() const {
  core::LockGuard lock(mutex_);
  Stats s;
  s.pushed = pushed_;
  s.popped = popped_;
  s.shed = shed_;
  s.rejected = rejected_;
  s.resident = size_;
  return s;
}

std::vector<ShardQueue::StreamStats> ShardQueue::stream_stats() const {
  core::LockGuard lock(mutex_);
  std::vector<StreamStats> rows;
  rows.reserve(rr_order_.size());
  for (const Stream* s : rr_order_) {
    StreamStats row;
    row.stream_id = s->id;
    row.pushed = s->pushed;
    row.popped = s->popped;
    row.shed = s->shed;
    row.resident = s->fifo.size();
    rows.push_back(row);
  }
  return rows;
}

std::size_t ShardQueue::stream_count() const {
  core::LockGuard lock(mutex_);
  return rr_order_.size();
}

}  // namespace adapt::serve
