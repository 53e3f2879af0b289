#pragma once

/// \file stream_router.hpp
/// The serving engine: N logical event streams (many telescopes /
/// many replayed bursts) multiplexed over S ShardQueues and drained by
/// W shared model workers, with the recovery policies a balloon flight
/// needs built in.  A single-stream deployment is the same engine at
/// one stream, one shard, and one worker.
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
/// Supervised recovery.  SEUs flip weight bits, a forward throws or
/// wedges, events vanish or duplicate in the handoff.  The router
/// absorbs each, and degraded data is always labeled `fallback`, never
/// silently substituted:
///
///   - **Checksum gating.**  `health_tick()` compares each model's
///     `weight_checksum` with its reference digest.  A drifted model is
///     quarantined — the built-in forward runs without it (Models null
///     semantics) — until `restore_*` re-arms it.  The references are
///     taken at the first health_tick / with_models_quiesced /
///     restore_*, so a router never health-checked pays no digest.
///   - **Retry, then fall back.**  A forward attempt (the forward hook,
///     then the engine or the built-in infer_batch) that throws is
///     retried up to kMaxRetries times, kRetryBackoff * 2^k apart with
///     the model lock released.  A batch that still fails is served by
///     the analytic path (no veto, clamped analytic d_eta) and counted
///     in `batch_errors`; the worker keeps serving.
///   - **Ingress hygiene.**  `submit()` refuses rings that fail
///     `ring_admissible` and consults the queue-fault hook.  An injected
///     drop is counted and never enqueued.  An injected duplicate is
///     enqueued right behind its original, with the same sequence
///     number, in one shard critical section; the worker drops a
///     request whose sequence equals the last it served on that stream,
///     before accounting, the localizer fold and the sink.
///   - **Stall watchdog.**  One thread wakes every kWatchdogInterval
///     and reads each worker's heartbeat.  A worker in flight with a
///     frozen heartbeat for longer than kStallTimeout counts one stall
///     per batch.  It detects and does not restart: nothing is joined
///     while a forward is wedged, and ingress never waits on it.
///
/// State machine (DESIGN.md Sec. 4), every transition and recovery
/// action counted in Stats and under `serve.supervisor.*`:
///
///   kHealthy --corrupt model detected--> kDegraded
///   kDegraded --good model restored---> kRecovering
///   kRecovering --first clean batch---> kHealthy
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
/// Telemetry (`serve.stream.*`): submitted / events / batches /
/// mixed_batches / shed / degraded_events / fallback_events /
/// batch_exceptions counters, plus latency_ms, infer_ms,
/// batch_streams (distinct streams per batch), and shard_depth
/// histograms.
///
/// Thread-safety (DESIGN.md Sec. 5): shard mutexes are the innermost
/// serve locks (leaf).  `streams_mutex_` guards only the stream
/// registry — populated worker-side, so the submit hot path touches
/// nothing but its shard.  `models_mutex_` guards the models, their
/// reference digests, the quarantine flags and the health state: a
/// forward attempt holds it shared (W workers still forward in
/// parallel); health_tick, restore_* and with_models_quiesced hold it
/// exclusively.  It never nests with a shard or registry lock.  No
/// router lock is held across a sink call or an alert callback; the
/// forward hook and the quiesce callback run under `models_mutex_`,
/// like the forward they stand in for, and must not re-enter the
/// router.

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

/// Recovery constants (file comment).  Retries per batch after the
/// first failed attempt; backoff before retry k is kRetryBackoff << k.
inline constexpr std::size_t kMaxRetries = 2;
inline constexpr std::chrono::microseconds kRetryBackoff{50};
/// Watchdog sampling period, and how long a worker may sit in flight
/// with a frozen heartbeat before it counts as stalled.
inline constexpr std::chrono::milliseconds kWatchdogInterval{10};
inline constexpr std::chrono::milliseconds kStallTimeout{250};

/// Where the router's models sit in the recovery state machine (file
/// comment).  Transitions are counted, not just the resting state.
enum class HealthState { kHealthy, kDegraded, kRecovering };

const char* to_string(HealthState state);

/// Injected queue-slot fault, decided per submit by the installed
/// hook (fault::Injector in the fault matrix; absent in production).
enum class QueueFault { kNone, kDrop, kDuplicate };

using QueueFaultHook = std::function<QueueFault()>;

/// Called once per forward *attempt* with the batch size, under the
/// shared model lock.  A hook that throws simulates a failed forward
/// (retry path); a hook that sleeps simulates a stalled forward
/// (watchdog path).  Fault injection only.
using ForwardHook = std::function<void(std::size_t batch_size)>;

/// True when `ring`/`polar_deg_guess` pass ingress validation: finite
/// axis and hit positions, eta in [-1, 1], finite non-negative
/// energies and d_eta, finite polar guess.
bool ring_admissible(const recon::ComptonRing& ring, double polar_deg_guess);

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

  /// Launch the workers and the stall watchdog.  Call once.
  void start();

  /// Install a replacement inference engine (shared by all workers —
  /// it must be thread-safe if num_workers > 1).  It owns its models:
  /// checksum quarantine applies to the built-in forward only, while
  /// retry and fallback wrap either.  Must precede start().
  void set_engine(InferenceEngine engine);

  /// Install the per-stream alert callback.  Must precede start().
  void set_alert_callback(StreamAlertCallback on_alert);

  /// Fault-injection substitution points.  Must precede start().
  void set_queue_fault_hook(QueueFaultHook hook);
  void set_forward_hook(ForwardHook hook);

  /// Validate one ring and enqueue it onto `stream_id`'s shard
  /// (thread-safe, non-blocking; any producer thread).  Returns the
  /// assigned globally monotone sequence number, or 0 when the ring
  /// is inadmissible, dropped by the queue-fault hook, or the router
  /// is stopped.
  std::uint64_t submit(std::uint32_t stream_id,
                       const recon::ComptonRing& ring, double polar_deg_guess);

  /// Close every shard, drain them, and join the workers and the
  /// watchdog.  Every request admitted before stop() is delivered or
  /// counted as shed.  Idempotent.
  void stop();

  /// Revalidate the model digests against their references and
  /// advance the state machine.  Fault cells call it manually after
  /// each injection round.
  void health_tick() ADAPT_EXCLUDES(models_mutex_);

  /// Swap in a replacement model (presumed good — its loader already
  /// verified the serialized checksum), re-arm its reference digest,
  /// and enter kRecovering; the first clean batch (or a health tick)
  /// completes the recovery.  Passing the attached pointer re-arms it
  /// in place.
  void restore_background(pipeline::BackgroundNet* net)
      ADAPT_EXCLUDES(models_mutex_);
  void restore_deta(pipeline::DEtaNet* net) ADAPT_EXCLUDES(models_mutex_);

  /// Run `fn` with exclusive access to the models: no forward is in
  /// progress, so mutating weights inside `fn` (an injected SEU) lands
  /// strictly between batches.  `fn` must not call back into the
  /// router.
  void with_models_quiesced(const std::function<void(pipeline::Models&)>& fn)
      ADAPT_EXCLUDES(models_mutex_);

  struct Stats {
    std::uint64_t submitted = 0;   ///< Sequence numbers handed out.
    std::uint64_t processed = 0;   ///< Results delivered to the sink.
    std::uint64_t batches = 0;
    std::uint64_t mixed_batches = 0;  ///< Batches spanning >1 stream.
    std::uint64_t shed = 0;           ///< Across all shards.
    std::uint64_t rejected = 0;       ///< Submitted after stop().
    std::uint64_t degraded = 0;
    std::uint64_t background = 0;
    std::uint64_t fallback = 0;
    std::uint64_t batch_errors = 0;  ///< Batches that exhausted retries.
    std::uint64_t streams = 0;     ///< Distinct stream ids seen.
    // Supervised recovery (file comment).
    std::uint64_t input_rejected = 0;  ///< Inadmissible rings refused.
    std::uint64_t queue_drops = 0;     ///< Injected drops absorbed.
    std::uint64_t duplicates_suppressed = 0;  ///< Injected copies dropped.
    std::uint64_t retries = 0;         ///< Forward attempts re-issued.
    std::uint64_t transient_recovered = 0;  ///< Batches saved by retry.
    std::uint64_t fallback_batches = 0;  ///< Batches flagged fallback.
    std::uint64_t checksum_failures = 0;  ///< Digest drifts detected.
    std::uint64_t restores = 0;        ///< Models re-attached.
    std::uint64_t watchdog_stalls = 0;  ///< Wedged batches detected.
    std::uint64_t degraded_entered = 0;   ///< -> kDegraded.
    std::uint64_t recovering_entered = 0;  ///< kDegraded -> kRecovering.
    std::uint64_t healthy_entered = 0;  ///< kRecovering -> kHealthy.
    HealthState state = HealthState::kHealthy;
  };
  Stats stats() const;

  /// Per-stream accounting rows, grouped by shard (shard index order,
  /// first-push order within a shard).  `submitted` counts admissions
  /// (shed happens later, inside the shard), so submitted ==
  /// processed + shed + resident at quiescence, plus any injected
  /// duplicate copies.
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

  std::size_t queue_depth() const;  ///< Sum over shards.
  const RouterConfig& config() const { return config_; }
  std::size_t shard_of(std::uint32_t stream_id) const {
    return stream_id % config_.num_shards;
  }

 private:
  /// Per-stream registry entry, created lazily by the OWNING WORKER
  /// the first time it processes the stream — the submit hot path
  /// never touches the registry; per-stream submission counts live in
  /// the shard ledger (`ShardQueue::StreamStats.pushed`, which counts
  /// admissions).  The counters are atomics so stats readers race the
  /// worker safely; the localizer pointer is immutable once the entry
  /// is constructed, and `last_sequence` is touched by the owning
  /// worker only.
  struct PerStream {
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> background{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> fallback{0};
    std::unique_ptr<StreamLocalizer> localizer;  ///< Null unless localize.
    std::uint64_t last_sequence = 0;  ///< Duplicate suppression.
  };

  PerStream& stream_entry(std::uint32_t stream_id)
      ADAPT_EXCLUDES(streams_mutex_);
  void worker_loop(std::size_t worker_index);
  void watchdog_loop() ADAPT_EXCLUDES(watchdog_mutex_);
  /// Drop injected duplicate copies from a popped batch (file comment).
  void suppress_duplicates(std::vector<ServeRequest>& batch);
  void process_batch(std::span<const ServeRequest> batch, bool degraded,
                     std::vector<ServeResult>& results);
  /// Forward with retry; never throws — a batch that exhausts its
  /// retries is served by the analytic path (file comment).
  BatchOutputs forward(std::span<const recon::ComptonRing> rings,
                       std::span<const double> polar, bool degraded)
      ADAPT_EXCLUDES(models_mutex_);
  /// Demultiplex the batch into contiguous per-stream runs: per-stream
  /// accounting, localizer feed, mixed-batch telemetry.
  void account_batch(std::span<const ServeRequest> batch,
                     std::span<const ServeResult> results);
  /// Take the reference digests if no check has taken them yet.
  void take_references_locked() ADAPT_REQUIRES(models_mutex_);
  /// Recompute the health state from the quarantine flags, counting
  /// transitions; kRecovering -> kHealthy only when allowed.
  void update_state_locked(bool allow_complete_recovery)
      ADAPT_REQUIRES(models_mutex_);
  /// Count a restore and enter kRecovering.
  void restored_locked() ADAPT_REQUIRES(models_mutex_);

  RouterConfig config_;
  ResultSink sink_;
  InferenceEngine engine_;
  StreamAlertCallback on_alert_;
  QueueFaultHook queue_fault_hook_;
  ForwardHook forward_hook_;
  std::vector<std::unique_ptr<ShardQueue>> shards_;
  std::vector<std::thread> workers_;
  /// Per worker, for the watchdog: bumped when it pops a batch and
  /// again when it is done, so the count is odd while it holds one.
  std::unique_ptr<std::atomic<std::uint64_t>[]> heartbeats_;

  mutable core::SharedMutex streams_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<PerStream>> streams_
      ADAPT_GUARDED_BY(streams_mutex_);

  mutable core::SharedMutex models_mutex_;
  pipeline::Models models_ ADAPT_GUARDED_BY(models_mutex_);
  bool references_taken_ ADAPT_GUARDED_BY(models_mutex_) = false;
  std::uint64_t background_ref_ ADAPT_GUARDED_BY(models_mutex_) = 0;
  std::uint64_t deta_ref_ ADAPT_GUARDED_BY(models_mutex_) = 0;
  bool background_ok_ ADAPT_GUARDED_BY(models_mutex_) = true;
  bool deta_ok_ ADAPT_GUARDED_BY(models_mutex_) = true;
  HealthState state_ ADAPT_GUARDED_BY(models_mutex_) = HealthState::kHealthy;

  core::Mutex watchdog_mutex_;
  core::CondVar watchdog_wake_;
  bool watchdog_stop_ ADAPT_GUARDED_BY(watchdog_mutex_) = false;

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
  std::atomic<std::uint64_t> input_rejected_{0};
  std::atomic<std::uint64_t> queue_drops_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> transient_recovered_{0};
  std::atomic<std::uint64_t> fallback_batches_{0};
  std::atomic<std::uint64_t> checksum_failures_{0};
  std::atomic<std::uint64_t> restores_{0};
  std::atomic<std::uint64_t> watchdog_stalls_{0};
  std::atomic<std::uint64_t> degraded_entered_{0};
  std::atomic<std::uint64_t> recovering_entered_{0};
  std::atomic<std::uint64_t> healthy_entered_{0};
  std::thread watchdog_;  ///< Last: it reads the members above.
};

}  // namespace adapt::serve
