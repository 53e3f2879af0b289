#pragma once

/// \file supervisor.hpp
/// Supervised recovery around the serving engine (serve::StreamRouter).
///
/// A plain StreamRouter assumes its models are sound and its worker
/// never wedges.  On a balloon (and eventually in orbit) that
/// assumption fails in specific, enumerable ways: SEUs flip weight
/// bits, a serialized model arrives truncated, a forward call throws
/// or stalls, events vanish or duplicate in the handoff.  The
/// Supervisor owns one router — one shard, one worker, no per-stream
/// localizers — and layers the recovery policies the fault x scenario
/// matrix (fault::run_matrix) exercises:
///
///   - **Checksum gating.**  Reference digests of the attached models
///     are captured at attach (`BackgroundNet::weight_checksum`) and
///     revalidated on every `health_tick()`.  A model whose digest
///     drifts is quarantined: the engine stops calling it and serves
///     the analytic path (null-model semantics of pipeline::Models)
///     with every result flagged `fallback` — degraded data is always
///     labeled, never silently substituted.
///   - **Retry with backoff.**  A forward that throws is retried up to
///     `max_retries` times with exponential backoff; transient faults
///     recover invisibly (counted, not surfaced).  A batch that
///     exhausts its retries is served analytically, flagged.
///   - **Restore.**  `restore_background` / `restore_deta` swap in a
///     replacement (loader-validated) model, re-arm its reference
///     digest, and move the state machine to kRecovering; the first
///     clean batch (or an idle health tick) completes the transition
///     back to kHealthy.  After a restore, no subsequently processed
///     batch may be flagged fallback — the recovery-ordering invariant
///     tests/fault pins down.
///   - **Watchdog.**  A background thread samples the router's two
///     liveness signals — the completed-batch count (`stats().batches`)
///     and `in_flight()`; a worker that sits in flight with a frozen
///     batch count past `stall_timeout` is declared wedged and the
///     router is stopped, rebuilt, and started (stop() drains the
///     shard, so admitted events survive the restart).
///   - **Ingress hygiene.**  `submit()` validates ring fields (NaN /
///     inf / out-of-range energies and cosines never reach a forward)
///     and absorbs injected queue faults: drops are counted, injected
///     duplicates are tracked by sequence number and suppressed at the
///     sink so downstream consumers see each event at most once.
///
/// State machine (see DESIGN.md):
///
///   kHealthy --corrupt model detected--> kDegraded
///   kDegraded --good model restored---> kRecovering
///   kRecovering --first clean batch---> kHealthy
///
/// Every transition and recovery action is counted under
/// `serve.supervisor.*` telemetry and mirrored in SupervisorStats so a
/// seeded fault cell can assert exact, bit-identical ledgers.
///
/// Router contract, enforced at construction: `router.num_workers ==
/// 1`, because the sink's scratch buffer is confined to the one worker
/// thread; and `!router.localize`, because the router's per-stream
/// localizers fold each batch before the sink runs — before deliver()
/// could suppress an injected duplicate — so a supervised stream would
/// double-count duplicated rings into the sky accumulator.
///
/// Thread-safety: submit() from any producer thread; the engine runs
/// on the router's worker thread; the watchdog is its own thread.
/// Model state (pointers, ok flags, health state) lives behind
/// `state_mutex_`, which the engine holds for the whole forward — a
/// health tick therefore observes either pre- or post-batch state,
/// never a torn middle.  All three mutexes are core::sync capabilities
/// with every guarded field annotated; the Clang thread-safety gate
/// checks the discipline.  Lock ordering (DESIGN.md): router_mutex_ ->
/// sink_mutex_ (submit's duplicate registration); state_mutex_ never
/// nests with either.  The user sink runs with NO supervisor lock
/// held — the one deliberate exception is the fault-injection forward
/// hook, which stands in for the forward itself and therefore runs
/// under state_mutex_ like the forward it simulates (it must never
/// call back into the Supervisor).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/sync.hpp"
#include "serve/stream_router.hpp"

namespace adapt::serve {

/// Where the supervised pipeline currently sits (DESIGN.md state
/// machine).  Transitions are counted, not just the resting state.
enum class HealthState { kHealthy, kDegraded, kRecovering };

const char* to_string(HealthState state);

/// Injected queue-slot fault, decided per submit by the installed
/// hook (fault::Injector in the fault matrix; absent in production).
enum class QueueFault { kNone, kDrop, kDuplicate };

using QueueFaultHook = std::function<QueueFault()>;

/// Called once per forward *attempt* with the batch size.  A hook that
/// throws simulates a failed forward (retry path); a hook that sleeps
/// simulates a stalled forward (watchdog path).  Fault injection only.
using ForwardHook = std::function<void(std::size_t batch_size)>;

struct SupervisorConfig {
  /// The wrapped router, one shard and one worker by default (see the
  /// router contract in the file comment).  Supervised submits all go
  /// to stream 0 unless a caller tags them, so the per-stream cap is
  /// the effective queue depth.
  RouterConfig router = [] {
    RouterConfig rc;
    rc.num_shards = 1;
    rc.num_workers = 1;
    return rc;
  }();

  /// Retries per batch after the first failed attempt.
  std::size_t max_retries = 2;
  /// Backoff before retry k is `retry_backoff << k` (exponential).
  std::chrono::microseconds retry_backoff{50};

  /// Watchdog sampling period; 0 disables the watchdog thread.
  std::chrono::milliseconds watchdog_interval{10};
  /// In-flight with a frozen heartbeat for longer than this = wedged.
  std::chrono::milliseconds stall_timeout{250};
  /// Run a checksum health_tick() every N watchdog samples (0 = only
  /// when called explicitly — fault cells tick manually so the ledger
  /// does not depend on wall-clock alignment).
  std::size_t checksum_every_n_ticks = 0;

  /// Reject rings with non-finite or out-of-range fields at submit.
  bool validate_inputs = true;
};

/// Exact mirror of the `serve.supervisor.*` counters, readable without
/// telemetry enabled; a seeded fault cell asserts these bit-identically.
struct SupervisorStats {
  std::uint64_t submitted = 0;          ///< Admitted to the router.
  std::uint64_t input_rejected = 0;     ///< Failed ring validation.
  std::uint64_t queue_drops = 0;        ///< Injected drops absorbed.
  std::uint64_t duplicates_suppressed = 0;  ///< Injected dups filtered.
  std::uint64_t retries = 0;            ///< Forward attempts re-issued.
  std::uint64_t transient_recovered = 0;    ///< Batches saved by retry.
  std::uint64_t fallback_batches = 0;   ///< Batches served analytically.
  std::uint64_t checksum_failures = 0;  ///< Digest drifts detected.
  std::uint64_t restores = 0;           ///< Good models re-attached.
  std::uint64_t watchdog_restarts = 0;  ///< Wedged workers replaced.
  std::uint64_t degraded_entered = 0;   ///< kHealthy/kRecovering -> kDegraded.
  std::uint64_t recovering_entered = 0; ///< kDegraded -> kRecovering.
  std::uint64_t healthy_entered = 0;    ///< kRecovering -> kHealthy.
  std::uint64_t delivered = 0;          ///< Results forwarded downstream.
  std::uint64_t delivered_fallback = 0; ///< ...of which flagged fallback.
  std::uint64_t delivered_degraded = 0; ///< ...of which flagged degraded.
  HealthState state = HealthState::kHealthy;
};

class Supervisor {
 public:
  /// Captures reference checksums of the attached models (either may
  /// be null) and builds — but does not start — the wrapped router.
  /// Rejects a router config that breaks the contract in the file
  /// comment (more than one worker, or `localize`).
  Supervisor(pipeline::Models models, SupervisorConfig config,
             ResultSink sink);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Launch the router worker and (if configured) the watchdog.
  void start();

  /// Drain and join everything.  Idempotent.
  void stop();

  /// Validated, fault-absorbing ingress.  Returns the assigned
  /// sequence number, or 0 when the ring was rejected, dropped, or the
  /// router is stopped.  `stream_id` is carried through to the result
  /// (see StreamRouter::submit).
  std::uint64_t submit(const recon::ComptonRing& ring,
                       double polar_deg_guess, std::uint32_t stream_id = 0);

  /// Revalidate model digests against their attach-time references and
  /// advance the state machine.  Cheap enough for a periodic tick;
  /// fault cells call it manually after each injection round.
  void health_tick() ADAPT_EXCLUDES(state_mutex_);

  /// health_tick() via try-lock: returns false (skipping the tick)
  /// when the worker holds state_mutex_ mid-forward.  This is what the
  /// watchdog calls, and it must NEVER block on state_mutex_: a
  /// stalled forward holds that mutex, and the watchdog has to stay
  /// live to detect exactly that stall (regression-tested in
  /// tests/serve/supervisor_test.cpp).
  bool try_health_tick() ADAPT_EXCLUDES(state_mutex_);

  /// Swap in a replacement model (presumed good — its loader already
  /// verified the serialized checksum), re-arm the reference digest,
  /// and enter kRecovering.  Passing the currently attached pointer
  /// re-validates it in place (e.g. after re-loading weights from a
  /// good file into the same object).
  void restore_background(pipeline::BackgroundNet* net);
  void restore_deta(pipeline::DEtaNet* net);

  /// Fault-injection hooks (install before start()).
  void set_queue_fault_hook(QueueFaultHook hook);
  void set_forward_hook(ForwardHook hook);

  /// Run `fn` with exclusive access to the attached models.  The
  /// engine holds the same mutex for the whole forward, so mutating
  /// weights inside `fn` (the matrix's SEU injection) is race-free
  /// even while the router is live — the flip lands strictly between
  /// batches.
  void with_models_quiesced(const std::function<void(pipeline::Models&)>& fn);

  SupervisorStats stats() const;
  HealthState state() const;

  const SupervisorConfig& config() const { return config_; }

  /// True when `ring`/`polar_deg_guess` would pass ingress validation:
  /// finite axis, eta in [-1, 1], finite non-negative energies, finite
  /// d_eta and polar guess.
  static bool ring_admissible(const recon::ComptonRing& ring,
                              double polar_deg_guess);

 private:
  std::unique_ptr<StreamRouter> make_router();
  BatchOutputs engine(std::span<const recon::ComptonRing> rings,
                      std::span<const double> polar, bool degrade_requested)
      ADAPT_EXCLUDES(state_mutex_);
  BatchOutputs analytic_outputs(std::span<const recon::ComptonRing> rings)
      const;
  void deliver(std::span<const ServeResult> results)
      ADAPT_EXCLUDES(sink_mutex_);
  void watchdog_loop();
  void restart_router() ADAPT_EXCLUDES(router_mutex_);
  /// Digest revalidation + state advance.  Caller holds state_mutex_
  /// (health_tick takes it; try_health_tick try-takes it).
  void health_tick_locked() ADAPT_REQUIRES(state_mutex_);
  /// Recompute state from the ok flags; counts transitions.  Caller
  /// holds state_mutex_.
  void update_state_locked(bool all_ok_now) ADAPT_REQUIRES(state_mutex_);

  SupervisorConfig config_;
  ResultSink user_sink_;

  // --- model state (state_mutex_) ---
  mutable core::Mutex state_mutex_;
  pipeline::Models models_ ADAPT_GUARDED_BY(state_mutex_);
  std::uint64_t background_ref_ ADAPT_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t deta_ref_ ADAPT_GUARDED_BY(state_mutex_) = 0;
  bool background_ok_ ADAPT_GUARDED_BY(state_mutex_) = true;
  bool deta_ok_ ADAPT_GUARDED_BY(state_mutex_) = true;
  HealthState state_ ADAPT_GUARDED_BY(state_mutex_) =
      HealthState::kHealthy;

  // --- router lifecycle (router_mutex_) ---
  core::Mutex router_mutex_;
  std::unique_ptr<StreamRouter> router_ ADAPT_GUARDED_BY(router_mutex_);

  // --- sink-side bookkeeping (sink_mutex_) ---
  core::Mutex sink_mutex_;
  std::unordered_set<std::uint64_t> expected_duplicates_
      ADAPT_GUARDED_BY(sink_mutex_);
  // Scratch buffer confined to the router's one worker thread (deliver
  // only runs there, and restart_router joins the old worker before the
  // replacement starts).  Filled under sink_mutex_ but handed to the
  // user sink AFTER it is released — no supervisor lock is ever held
  // across a callback.
  std::vector<ServeResult> filtered_;

  QueueFaultHook queue_fault_hook_;
  ForwardHook forward_hook_;

  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Counters are atomics so stats() needs no lock ordering story.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> input_rejected_{0};
  std::atomic<std::uint64_t> queue_drops_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> transient_recovered_{0};
  std::atomic<std::uint64_t> fallback_batches_{0};
  std::atomic<std::uint64_t> checksum_failures_{0};
  std::atomic<std::uint64_t> restores_{0};
  std::atomic<std::uint64_t> watchdog_restarts_{0};
  std::atomic<std::uint64_t> degraded_entered_{0};
  std::atomic<std::uint64_t> recovering_entered_{0};
  std::atomic<std::uint64_t> healthy_entered_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> delivered_fallback_{0};
  std::atomic<std::uint64_t> delivered_degraded_{0};
};

}  // namespace adapt::serve
