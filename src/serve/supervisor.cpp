#include "serve/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/contract.hpp"
#include "core/telemetry.hpp"

namespace adapt::serve {

namespace tm = core::telemetry;

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kRecovering:
      return "recovering";
  }
  return "unknown";
}

Supervisor::Supervisor(pipeline::Models models, SupervisorConfig config,
                       ResultSink sink)
    : config_(config), user_sink_(std::move(sink)), models_(models) {
  ADAPT_REQUIRE(static_cast<bool>(user_sink_), "supervisor needs a sink");
  ADAPT_REQUIRE(config.retry_backoff.count() >= 0, "negative retry backoff");
  // filtered_ is worker-confined scratch: a second worker would race it.
  ADAPT_REQUIRE(config.router.num_workers == 1,
                "supervised router must run exactly one worker");
  // Router localizers fold a batch before deliver() can suppress its
  // injected duplicates.
  ADAPT_REQUIRE(!config.router.localize,
                "supervised router cannot run per-stream localizers");
  if (models_.background)
    background_ref_ = models_.background->weight_checksum();
  if (models_.deta) deta_ref_ = models_.deta->weight_checksum();
  router_ = make_router();
}

Supervisor::~Supervisor() { stop(); }

std::unique_ptr<StreamRouter> Supervisor::make_router() {
  // The inner router carries *no* models: every forward goes through
  // engine(), which applies the supervisor's quarantine flags to the
  // attached models under state_mutex_.
  auto router = std::make_unique<StreamRouter>(
      pipeline::Models{}, config_.router,
      [this](std::span<const ServeResult> results) { deliver(results); });
  router->set_engine([this](std::span<const recon::ComptonRing> rings,
                            std::span<const double> polar,
                            bool degrade_requested) {
    return engine(rings, polar, degrade_requested);
  });
  return router;
}

void Supervisor::start() {
  ADAPT_REQUIRE(!started_.exchange(true), "supervisor already started");
  {
    core::LockGuard lock(router_mutex_);
    router_->start();
  }
  if (config_.watchdog_interval.count() > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

void Supervisor::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  watchdog_stop_.store(true);
  if (watchdog_.joinable()) watchdog_.join();
  core::LockGuard lock(router_mutex_);
  if (router_) router_->stop();
}

void Supervisor::set_queue_fault_hook(QueueFaultHook hook) {
  ADAPT_REQUIRE(!started_.load(), "install hooks before start()");
  queue_fault_hook_ = std::move(hook);
}

void Supervisor::set_forward_hook(ForwardHook hook) {
  ADAPT_REQUIRE(!started_.load(), "install hooks before start()");
  forward_hook_ = std::move(hook);
}

bool Supervisor::ring_admissible(const recon::ComptonRing& ring,
                                 double polar_deg_guess) {
  const auto finite3 = [](const core::Vec3& v) {
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
  };
  return finite3(ring.axis) && core::is_cosine(ring.eta) &&
         std::isfinite(ring.d_eta) && ring.d_eta >= 0.0 &&
         std::isfinite(ring.e_total) && ring.e_total >= 0.0 &&
         std::isfinite(ring.hit1.energy) && ring.hit1.energy >= 0.0 &&
         std::isfinite(ring.hit2.energy) && ring.hit2.energy >= 0.0 &&
         finite3(ring.hit1.position) && finite3(ring.hit2.position) &&
         std::isfinite(polar_deg_guess);
}

std::uint64_t Supervisor::submit(const recon::ComptonRing& ring,
                                 double polar_deg_guess,
                                 std::uint32_t stream_id) {
  static tm::Counter& rejected_metric =
      tm::counter("serve.supervisor.input_rejected");
  static tm::Counter& drops_metric =
      tm::counter("serve.supervisor.queue_drops");

  if (config_.validate_inputs && !ring_admissible(ring, polar_deg_guess)) {
    input_rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_metric.add();
    return 0;
  }
  const QueueFault fault =
      queue_fault_hook_ ? queue_fault_hook_() : QueueFault::kNone;
  if (fault == QueueFault::kDrop) {
    // An injected drop is absorbed here: counted, never enqueued, so
    // the downstream stream simply continues.
    queue_drops_.fetch_add(1, std::memory_order_relaxed);
    drops_metric.add();
    return 0;
  }

  core::LockGuard lock(router_mutex_);
  if (!router_) return 0;
  const std::uint64_t seq = router_->submit(stream_id, ring, polar_deg_guess);
  if (seq == 0) return 0;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (fault == QueueFault::kDuplicate) {
    // Register the duplicate before the worker can deliver it:
    // deliver() serializes on sink_mutex_, so holding it across the
    // second submit closes the publish/consume race.  This is the one
    // place two supervisor locks nest: router_mutex_ -> sink_mutex_
    // (DESIGN.md lock ordering).
    core::LockGuard sink_lock(sink_mutex_);
    const std::uint64_t dup =
        router_->submit(stream_id, ring, polar_deg_guess);
    if (dup != 0) expected_duplicates_.insert(dup);
  }
  return seq;
}

BatchOutputs Supervisor::analytic_outputs(
    std::span<const recon::ComptonRing> rings) const {
  BatchOutputs out;
  out.fallback = true;
  out.is_background.assign(rings.size(), 0);  // No veto: flagged, not dropped.
  out.d_eta.resize(rings.size());
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const double analytic = std::isfinite(rings[i].d_eta)
                                ? rings[i].d_eta
                                : config_.router.d_eta_floor;
    out.d_eta[i] = std::clamp(analytic, config_.router.d_eta_floor,
                              config_.router.d_eta_cap);
  }
  return out;
}

BatchOutputs Supervisor::engine(std::span<const recon::ComptonRing> rings,
                                std::span<const double> polar,
                                bool degrade_requested) {
  static tm::Counter& retries_metric = tm::counter("serve.supervisor.retries");
  static tm::Counter& recovered_metric =
      tm::counter("serve.supervisor.transient_recovered");
  static tm::Counter& fallback_metric =
      tm::counter("serve.supervisor.fallback_batches");

  core::UniqueLock lock(state_mutex_);
  for (std::size_t attempt = 0;; ++attempt) {
    // Quarantined models are nulled out for this batch; the
    // pipeline::Models null semantics (no veto / analytic d_eta) are
    // exactly the fallback path, and the batch is flagged.
    pipeline::Models effective = models_;
    if (!background_ok_) effective.background = nullptr;
    if (!deta_ok_) effective.deta = nullptr;
    const bool model_fallback = (models_.background && !background_ok_) ||
                                (models_.deta && !deta_ok_);
    try {
      if (forward_hook_) forward_hook_(rings.size());
      BatchOutputs out;
      out.is_background = effective.classify_background_batch(rings, polar);
      pipeline::Models deta_source = effective;
      if (degrade_requested) deta_source.deta = nullptr;
      out.d_eta = deta_source.predict_deta_batch(
          rings, polar, config_.router.d_eta_floor, config_.router.d_eta_cap);
      out.degraded = degrade_requested && effective.deta != nullptr;
      out.fallback = model_fallback;
      ADAPT_ENSURE(out.is_background.size() == rings.size() &&
                       out.d_eta.size() == rings.size(),
                   "supervised engine must emit one result per ring");
      if (model_fallback) {
        fallback_batches_.fetch_add(1, std::memory_order_relaxed);
        fallback_metric.add();
      } else {
        // A clean batch after a restore completes the recovery: no
        // fallback-flagged result can follow it (recovery-ordering
        // invariant; tests/fault).
        update_state_locked(/*allow_complete_recovery=*/true);
      }
      if (attempt > 0) {
        transient_recovered_.fetch_add(1, std::memory_order_relaxed);
        recovered_metric.add();
      }
      return out;
    } catch (const std::exception&) {
      if (attempt >= config_.max_retries) {
        // Persistent failure: serve the batch analytically, flagged.
        fallback_batches_.fetch_add(1, std::memory_order_relaxed);
        fallback_metric.add();
        return analytic_outputs(rings);
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      retries_metric.add();
      // Back off without pinning model state: a health tick or restore
      // may run between attempts, so effective is recomputed above.
      const auto backoff =
          config_.retry_backoff * (1u << std::min<std::size_t>(attempt, 10));
      lock.unlock();
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      lock.lock();
    }
  }
}

void Supervisor::deliver(std::span<const ServeResult> results) {
  static tm::Counter& suppressed_metric =
      tm::counter("serve.supervisor.duplicates_suppressed");
  static tm::Counter& delivered_metric =
      tm::counter("serve.supervisor.delivered");

  filtered_.clear();
  {
    core::LockGuard lock(sink_mutex_);
    for (const ServeResult& r : results) {
      if (!expected_duplicates_.empty() &&
          expected_duplicates_.erase(r.sequence) > 0) {
        duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
        suppressed_metric.add();
        continue;
      }
      delivered_.fetch_add(1, std::memory_order_relaxed);
      delivered_metric.add();
      if (r.fallback)
        delivered_fallback_.fetch_add(1, std::memory_order_relaxed);
      if (r.degraded)
        delivered_degraded_.fetch_add(1, std::memory_order_relaxed);
      filtered_.push_back(r);
    }
  }
  // The user sink runs with sink_mutex_ released: suppression
  // bookkeeping is already done, and a sink that re-enters the
  // supervisor (submit() takes router_mutex_ -> sink_mutex_ on the
  // duplicate path) must not deadlock (regression-tested in
  // tests/serve/supervisor_test.cpp).
  if (!filtered_.empty()) user_sink_(filtered_);
}

void Supervisor::update_state_locked(bool allow_complete_recovery) {
  static tm::Counter& degraded_metric =
      tm::counter("serve.supervisor.state_degraded");
  static tm::Counter& recovering_metric =
      tm::counter("serve.supervisor.state_recovering");
  static tm::Counter& healthy_metric =
      tm::counter("serve.supervisor.state_healthy");

  const bool all_ok = background_ok_ && deta_ok_;
  if (!all_ok) {
    if (state_ != HealthState::kDegraded) {
      state_ = HealthState::kDegraded;
      degraded_entered_.fetch_add(1, std::memory_order_relaxed);
      degraded_metric.add();
    }
    return;
  }
  if (state_ == HealthState::kDegraded) {
    state_ = HealthState::kRecovering;
    recovering_entered_.fetch_add(1, std::memory_order_relaxed);
    recovering_metric.add();
  }
  if (state_ == HealthState::kRecovering && allow_complete_recovery) {
    state_ = HealthState::kHealthy;
    healthy_entered_.fetch_add(1, std::memory_order_relaxed);
    healthy_metric.add();
  }
}

void Supervisor::health_tick() {
  core::LockGuard lock(state_mutex_);
  health_tick_locked();
}

void Supervisor::health_tick_locked() {
  static tm::Counter& checksum_metric =
      tm::counter("serve.supervisor.checksum_failures");

  // Only ok -> bad transitions count: a model already quarantined stays
  // quarantined (and uncounted) until an explicit restore re-arms it.
  if (background_ok_ && models_.background &&
      models_.background->weight_checksum() != background_ref_) {
    background_ok_ = false;
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    checksum_metric.add();
  }
  if (deta_ok_ && models_.deta &&
      models_.deta->weight_checksum() != deta_ref_) {
    deta_ok_ = false;
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    checksum_metric.add();
  }
  update_state_locked(/*allow_complete_recovery=*/true);
}

bool Supervisor::try_health_tick() {
  // The tick body runs under the TRY-acquired lock.  The previous
  // shape (try-lock, release, then call the blocking health_tick())
  // was a TOCTOU: between the release and the re-acquire the worker
  // could enter a forward — or stall in one — and the watchdog would
  // block on exactly the wedge it exists to detect.
  if (!state_mutex_.try_lock()) return false;  // Worker mid-forward.
  health_tick_locked();
  state_mutex_.unlock();
  return true;
}

void Supervisor::with_models_quiesced(
    const std::function<void(pipeline::Models&)>& fn) {
  ADAPT_REQUIRE(static_cast<bool>(fn), "null quiesce callback");
  // Deliberate callback-under-lock (the only one besides the forward
  // hook): exclusive model access IS the quiesce contract.  `fn` must
  // not call back into the Supervisor.
  core::LockGuard lock(state_mutex_);
  fn(models_);
}

void Supervisor::restore_background(pipeline::BackgroundNet* net) {
  static tm::Counter& restores_metric =
      tm::counter("serve.supervisor.restores");
  core::LockGuard lock(state_mutex_);
  models_.background = net;
  background_ref_ = net ? net->weight_checksum() : 0;
  background_ok_ = true;
  restores_.fetch_add(1, std::memory_order_relaxed);
  restores_metric.add();
  // Recovery completes on the first clean batch (or an idle tick),
  // not here: kRecovering marks the drain window.
  update_state_locked(/*allow_complete_recovery=*/false);
}

void Supervisor::restore_deta(pipeline::DEtaNet* net) {
  static tm::Counter& restores_metric =
      tm::counter("serve.supervisor.restores");
  core::LockGuard lock(state_mutex_);
  models_.deta = net;
  deta_ref_ = net ? net->weight_checksum() : 0;
  deta_ok_ = true;
  restores_.fetch_add(1, std::memory_order_relaxed);
  restores_metric.add();
  update_state_locked(/*allow_complete_recovery=*/false);
}

void Supervisor::watchdog_loop() {
  static tm::Counter& restarts_metric =
      tm::counter("serve.supervisor.watchdog_restarts");

  // Heartbeat = the router's completed-batch count.
  std::uint64_t last_heartbeat = 0;
  bool stall_candidate = false;
  auto stall_since = std::chrono::steady_clock::now();
  std::size_t samples = 0;
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(config_.watchdog_interval);
    if (watchdog_stop_.load(std::memory_order_relaxed)) break;

    std::uint64_t heartbeat = 0;
    bool in_flight = false;
    {
      core::LockGuard lock(router_mutex_);
      if (!router_) continue;
      heartbeat = router_->stats().batches;
      in_flight = router_->in_flight();
    }
    const auto now = std::chrono::steady_clock::now();
    if (heartbeat != last_heartbeat || !in_flight) {
      last_heartbeat = heartbeat;
      stall_candidate = false;
    } else if (!stall_candidate) {
      stall_candidate = true;
      stall_since = now;
    } else if (now - stall_since >= config_.stall_timeout) {
      restart_router();
      restarts_metric.add();
      stall_candidate = false;
      last_heartbeat = 0;
    }

    // Periodic checksum validation *after* the stall check, and only
    // via try-lock: a stalled forward holds state_mutex_, and the
    // watchdog must stay live to detect exactly that.
    if (config_.checksum_every_n_ticks != 0 &&
        ++samples % config_.checksum_every_n_ticks == 0)
      try_health_tick();
  }
}

void Supervisor::restart_router() {
  core::LockGuard lock(router_mutex_);
  if (!router_) return;
  // stop() closes the shard and joins the worker once the stalled
  // forward returns; every admitted request is delivered or counted
  // shed before the replacement starts, so the restart loses nothing.
  router_->stop();
  router_ = make_router();
  router_->start();
  watchdog_restarts_.fetch_add(1, std::memory_order_relaxed);
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.input_rejected = input_rejected_.load(std::memory_order_relaxed);
  s.queue_drops = queue_drops_.load(std::memory_order_relaxed);
  s.duplicates_suppressed =
      duplicates_suppressed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.transient_recovered = transient_recovered_.load(std::memory_order_relaxed);
  s.fallback_batches = fallback_batches_.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
  s.restores = restores_.load(std::memory_order_relaxed);
  s.watchdog_restarts = watchdog_restarts_.load(std::memory_order_relaxed);
  s.degraded_entered = degraded_entered_.load(std::memory_order_relaxed);
  s.recovering_entered = recovering_entered_.load(std::memory_order_relaxed);
  s.healthy_entered = healthy_entered_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.delivered_fallback = delivered_fallback_.load(std::memory_order_relaxed);
  s.delivered_degraded = delivered_degraded_.load(std::memory_order_relaxed);
  s.state = state();
  return s;
}

HealthState Supervisor::state() const {
  core::LockGuard lock(state_mutex_);
  return state_;
}

}  // namespace adapt::serve
