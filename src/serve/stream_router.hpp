#pragma once

/// \file stream_router.hpp
/// The serving engine: N logical event streams (many telescopes /
/// many replayed bursts) multiplexed over S ShardQueues and drained by
/// W shared model workers.  A single-stream deployment is the same
/// engine at one stream, one shard, and one worker; serve::Supervisor
/// wraps one router of that shape.
///
/// Topology.  A stream lives on exactly one shard (`stream_id %
/// num_shards`) and a shard is owned by exactly one worker (`shard %
/// num_workers`), so per-stream FIFO order is preserved end to end
/// and two workers never contend on a shard.  Each worker cycles its
/// shards round-robin, popping micro-batches with the zero-wait
/// "flush what is visible now" semantics and blocking for at most
/// `flush_deadline` once a full cycle found nothing; inside a shard
/// the batch is filled by quantum round-robin across the resident
/// streams (see shard_queue.hpp), so one flooding stream cannot starve
/// its neighbors at either level.  A batch may therefore mix streams —
/// results carry `stream_id` and per-stream runs stay contiguous and
/// in stream order.
///
/// Fairness + admission control: per-stream depth caps with
/// shed-oldest-within-the-stream (the flooding stream absorbs all of
/// its own shedding), shard capacity as the backstop.  Overload
/// degrade: when the owning shard's post-pop depth is at or above
/// `degrade_watermark * shard_capacity`, the batch skips the dEta
/// network and serves the analytic (propagated) d_eta, flagged
/// `degraded`.  Background classification is never skipped: dropping
/// the veto would leak background into the science stream, while an
/// analytic d_eta merely widens a weight.
///
/// Equivalence contract: served outputs are bit-identical to one
/// direct `Models::infer_batch` over the same rings with the same
/// d_eta clamp, whatever the batch split (the batch-equivalence
/// guarantee of the fused forward; tests/serve/stream_router_test.cpp
/// checks it at one stream, one shard, one worker).
///
/// Failure containment: a forward (or installed engine) that throws
/// fails its batch over to an analytic emergency path — no veto,
/// clamped analytic d_eta, every result flagged `fallback`, counted in
/// `batch_errors` — and the worker keeps serving.
///
/// Localization: when `localize` is set, every stream gets its OWN
/// StreamLocalizer (independent sky accumulator, independent one-shot
/// early alert) fed from the worker thread with that stream's slice of
/// each batch, before the sink runs; alerts arrive on
/// `StreamAlertCallback` tagged with the stream id, fired with no
/// router lock held.
///
/// Sink contract: ONE sink shared by all workers.  Calls for the same
/// stream are serialized and in order (stream -> shard -> worker is
/// static); calls for different streams may be CONCURRENT — a sink
/// that aggregates across streams must lock or partition by
/// `ServeResult::stream_id`.
///
/// Liveness: `stats().batches` advances once per delivered batch and
/// `in_flight()` is true from a batch's pop until its sink returns; a
/// watchdog that sees in_flight with a frozen batch count for longer
/// than its stall budget has found a wedged forward
/// (serve::Supervisor).
///
/// Telemetry (`serve.stream.*`): submitted / events / batches /
/// mixed_batches / shed / degraded_events / fallback_events /
/// batch_exceptions counters, plus latency_ms, infer_ms,
/// batch_streams (distinct streams per batch), and shard_depth
/// histograms.
///
/// Thread-safety: shard mutexes are the innermost serve locks (leaf);
/// the router's own `streams_mutex_` guards only the stream registry
/// map — populated worker-side on first processing, so the submit hot
/// path touches nothing but its shard — and is never held across a
/// forward, a sink call, or an alert callback (DESIGN.md Sec. 5
/// registry).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "pipeline/models.hpp"
#include "serve/request.hpp"
#include "serve/shard_queue.hpp"
#include "serve/stream_localizer.hpp"

namespace adapt::serve {

struct RouterConfig {
  std::size_t num_shards = 4;
  std::size_t num_workers = 2;
  /// Resident capacity per shard (not global — capacity scales with
  /// the shard count).
  std::size_t shard_capacity = 4096;
  /// Admission control: max resident requests per stream.
  std::size_t per_stream_cap = 1024;
  /// Requests taken per stream per round-robin visit when filling a
  /// batch (shard_queue.hpp).
  std::size_t quantum = 16;
  std::size_t max_batch = 64;
  /// Worker idle wait when all its shards are empty (0 = 100 us); also
  /// the upper bound on how stale a worker's view of a quiet shard can
  /// be.  A batch never waits to fill: it ships what is visible.
  std::chrono::microseconds flush_deadline{200};
  /// Overload degrade (file comment), keyed on the owning shard's
  /// post-pop depth.
  double degrade_watermark = 0.75;
  bool degrade_when_saturated = true;
  double d_eta_floor = 1e-4;
  double d_eta_cap = 2.0;
  /// Give every stream its own StreamLocalizer built from
  /// `localizer_template` (alert threshold, cadence, resolution...).
  bool localize = false;
  StreamLocalizerConfig localizer_template;
};

/// Early-alert delivery for a specific stream's localizer.  Runs on
/// the worker thread that owns the stream, with no router lock held.
using StreamAlertCallback =
    std::function<void(std::uint32_t stream_id, const AlertInfo&)>;

class StreamRouter {
 public:
  /// `models` pointers must outlive the router; either may be null
  /// (pipeline::Models null semantics).  The sink contract is in the
  /// file comment: per-stream serialized, cross-stream concurrent.
  StreamRouter(pipeline::Models models, RouterConfig config, ResultSink sink);
  ~StreamRouter();

  StreamRouter(const StreamRouter&) = delete;
  StreamRouter& operator=(const StreamRouter&) = delete;

  /// Launch the workers.  Call once.
  void start();

  /// Install a replacement inference engine (shared by all workers —
  /// it must be thread-safe if num_workers > 1).  Must precede start().
  void set_engine(InferenceEngine engine);

  /// Install the per-stream alert callback.  Must precede start().
  void set_alert_callback(StreamAlertCallback on_alert);

  /// Enqueue one ring onto `stream_id`'s shard (thread-safe,
  /// non-blocking; any producer thread).  Returns the assigned
  /// globally monotone sequence number, or 0 when the router is
  /// stopped.
  std::uint64_t submit(std::uint32_t stream_id,
                       const recon::ComptonRing& ring, double polar_deg_guess);

  /// Close every shard, drain them, and join the workers.  Every
  /// request admitted before stop() is delivered or counted as shed.
  /// Idempotent.
  void stop();

  struct Stats {
    std::uint64_t submitted = 0;   ///< Sequence numbers handed out.
    std::uint64_t processed = 0;
    std::uint64_t batches = 0;
    std::uint64_t mixed_batches = 0;  ///< Batches spanning >1 stream.
    std::uint64_t shed = 0;           ///< Across all shards.
    std::uint64_t rejected = 0;       ///< Submitted after stop().
    std::uint64_t degraded = 0;
    std::uint64_t background = 0;
    std::uint64_t fallback = 0;
    std::uint64_t batch_errors = 0;
    std::uint64_t streams = 0;     ///< Distinct stream ids seen.
  };
  Stats stats() const;

  /// Per-stream accounting rows, grouped by shard (shard index order,
  /// first-push order within a shard).  `submitted` counts admissions
  /// (shed happens later, inside the shard), so submitted ==
  /// processed + shed + resident at quiescence.
  struct StreamStats {
    std::uint32_t stream_id = 0;
    std::uint64_t submitted = 0;
    std::uint64_t processed = 0;
    std::uint64_t shed = 0;
    std::uint64_t resident = 0;
    std::uint64_t background = 0;
    std::uint64_t degraded = 0;
    std::uint64_t fallback = 0;
    bool alert_fired = false;
  };
  std::vector<StreamStats> stream_stats() const;

  /// Localizer status for one stream (nullopt when localization is off
  /// or the stream has not been seen).
  std::optional<StreamLocalizer::Status> localizer_status(
      std::uint32_t stream_id) const;

  /// True while any worker holds a popped batch whose sink has not
  /// returned yet (see Liveness in the file comment).
  bool in_flight() const {
    return in_flight_.load(std::memory_order_relaxed) > 0;
  }

  std::size_t queue_depth() const;  ///< Sum over shards.
  const RouterConfig& config() const { return config_; }
  std::size_t shard_of(std::uint32_t stream_id) const {
    return stream_id % config_.num_shards;
  }

 private:
  /// Per-stream registry entry, created lazily by the OWNING WORKER
  /// the first time it processes the stream (account_batch) — the
  /// submit hot path never touches the registry; per-stream submission
  /// counts live in the shard ledger (`ShardQueue::StreamStats.pushed`,
  /// which counts admissions).  The counters are atomics so stats
  /// readers race the worker safely; the localizer pointer is
  /// immutable once the entry is constructed.
  struct PerStream {
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> background{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> fallback{0};
    std::unique_ptr<StreamLocalizer> localizer;  ///< Null unless localize.
  };

  PerStream& stream_entry(std::uint32_t stream_id)
      ADAPT_EXCLUDES(streams_mutex_);
  void worker_loop(std::size_t worker_index);
  void process_batch(std::span<const ServeRequest> batch, bool degraded,
                     std::vector<ServeResult>& results);
  void emergency_results(std::span<const ServeRequest> batch,
                         std::vector<ServeResult>& results);
  /// Demultiplex the batch into contiguous per-stream runs: per-stream
  /// accounting, localizer feed, mixed-batch telemetry.
  void account_batch(std::span<const ServeRequest> batch,
                     std::span<const ServeResult> results);

  pipeline::Models models_;
  RouterConfig config_;
  ResultSink sink_;
  InferenceEngine engine_;
  StreamAlertCallback on_alert_;
  std::vector<std::unique_ptr<ShardQueue>> shards_;
  std::vector<std::thread> workers_;

  mutable core::SharedMutex streams_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<PerStream>> streams_
      ADAPT_GUARDED_BY(streams_mutex_);

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> next_sequence_{1};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> mixed_batches_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> background_{0};
  std::atomic<std::uint64_t> fallback_{0};
  std::atomic<std::uint64_t> batch_errors_{0};
  std::atomic<std::size_t> in_flight_{0};  ///< Popped, not yet delivered.
};

}  // namespace adapt::serve
