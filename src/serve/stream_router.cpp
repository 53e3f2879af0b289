#include "serve/stream_router.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/contract.hpp"
#include "core/require.hpp"
#include "core/telemetry.hpp"

namespace adapt::serve {

namespace tm = core::telemetry;

namespace {

/// Bump a Stats mirror and its telemetry counter together.
void bump(std::atomic<std::uint64_t>& mirror, tm::Counter& metric,
          std::uint64_t n = 1) {
  mirror.fetch_add(n, std::memory_order_relaxed);
  metric.add(n);
}

}  // namespace

const char* to_string(HealthState state) {
  static constexpr const char* kNames[] = {"healthy", "degraded",
                                           "recovering"};
  return kNames[static_cast<std::size_t>(state)];
}

bool ring_admissible(const recon::ComptonRing& ring, double polar_deg_guess) {
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

StreamRouter::StreamRouter(pipeline::Models models, RouterConfig config,
                           ResultSink sink)
    : config_(config), sink_(std::move(sink)), models_(models) {
  ADAPT_REQUIRE(static_cast<bool>(sink_), "stream router needs a sink");
  ADAPT_REQUIRE(config.num_shards >= 1, "router needs at least one shard");
  ADAPT_REQUIRE(config.num_workers >= 1, "router needs at least one worker");
  ADAPT_REQUIRE(config.max_batch >= 1 &&
                    config.max_batch <= config.shard_capacity,
                "max_batch must be in [1, shard_capacity]");
  ADAPT_REQUIRE(
      config.degrade_watermark > 0.0 && config.degrade_watermark <= 1.0,
      "degrade watermark must be in (0, 1]");
  ADAPT_REQUIRE(config.d_eta_floor > 0.0 &&
                    config.d_eta_cap > config.d_eta_floor,
                "invalid d_eta bounds");
  // More workers than shards would leave the surplus workers with no
  // shard to own (shard -> worker is static).
  ADAPT_REQUIRE(config.num_workers <= config.num_shards,
                "num_workers cannot exceed num_shards");
  ShardQueueConfig shard_config;
  shard_config.capacity = config.shard_capacity;
  shard_config.per_stream_cap = config.per_stream_cap;
  shard_config.quantum = config.quantum;
  shards_.reserve(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s)
    shards_.push_back(std::make_unique<ShardQueue>(shard_config));
  heartbeats_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(config.num_workers);
}

StreamRouter::~StreamRouter() { stop(); }

void StreamRouter::start() {
  ADAPT_REQUIRE(!started_.exchange(true), "router already started");
  workers_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void StreamRouter::set_engine(InferenceEngine engine) {
  ADAPT_REQUIRE(!started_.load(), "set_engine must precede start()");
  engine_ = std::move(engine);
}

void StreamRouter::set_alert_callback(StreamAlertCallback on_alert) {
  ADAPT_REQUIRE(!started_.load(), "set_alert_callback must precede start()");
  on_alert_ = std::move(on_alert);
}

void StreamRouter::set_queue_fault_hook(QueueFaultHook hook) {
  ADAPT_REQUIRE(!started_.load(), "install hooks before start()");
  queue_fault_hook_ = std::move(hook);
}

void StreamRouter::set_forward_hook(ForwardHook hook) {
  ADAPT_REQUIRE(!started_.load(), "install hooks before start()");
  forward_hook_ = std::move(hook);
}

StreamRouter::PerStream& StreamRouter::stream_entry(std::uint32_t stream_id) {
  {
    core::ReaderLock lock(streams_mutex_);
    const auto it = streams_.find(stream_id);
    if (it != streams_.end()) return *it->second;
  }
  core::WriterLock lock(streams_mutex_);
  auto& slot = streams_[stream_id];
  if (!slot) {
    static tm::Counter& streams_metric = tm::counter("serve.stream.streams");
    slot = std::make_unique<PerStream>();
    if (config_.localize) {
      AlertCallback forward;
      if (on_alert_) {
        // Tag the shared callback with the stream id.  The localizer
        // fires it outside its own mutex, and we hold no router lock
        // on the worker path that triggers it.
        forward = [this, stream_id](const AlertInfo& info) {
          on_alert_(stream_id, info);
        };
      }
      slot->localizer = std::make_unique<StreamLocalizer>(
          config_.localizer_template, std::move(forward));
    }
    streams_metric.add();
  }
  return *slot;
}

std::uint64_t StreamRouter::submit(std::uint32_t stream_id,
                                   const recon::ComptonRing& ring,
                                   double polar_deg_guess) {
  // Hot path: validation, sequence assignment, one shard push.  The
  // router's stream registry is populated worker-side (account_batch);
  // per-stream submission counts are the shard ledger's per-stream
  // `pushed`, maintained under the same shard lock the push already
  // takes.
  static tm::Counter& submitted_metric = tm::counter("serve.stream.submitted");
  static tm::Counter& rejected_metric =
      tm::counter("serve.supervisor.input_rejected");
  static tm::Counter& drops_metric =
      tm::counter("serve.supervisor.queue_drops");
  if (!ring_admissible(ring, polar_deg_guess)) {
    bump(input_rejected_, rejected_metric);
    return 0;
  }
  const QueueFault fault =
      queue_fault_hook_ ? queue_fault_hook_() : QueueFault::kNone;
  if (fault == QueueFault::kDrop) {
    bump(queue_drops_, drops_metric);
    return 0;
  }
  ServeRequest request;
  request.ring = ring;
  request.polar_deg_guess = polar_deg_guess;
  request.stream_id = stream_id;
  request.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  request.enqueued_at = std::chrono::steady_clock::now();
  const std::uint64_t seq = request.sequence;
  if (!shards_[shard_of(stream_id)]->push(std::move(request),
                                          fault == QueueFault::kDuplicate)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  submitted_metric.add();
  return seq;
}

void StreamRouter::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  for (auto& shard : shards_) shard->close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // The watchdog outlives the drain, so a forward that wedges it is
  // still counted; the notify means stop() never waits out an interval.
  {
    core::LockGuard lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_wake_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void StreamRouter::worker_loop(std::size_t worker_index) {
  static tm::Counter& events_metric = tm::counter("serve.stream.events");
  static tm::Counter& batches_metric = tm::counter("serve.stream.batches");
  static tm::Counter& delivered_metric =
      tm::counter("serve.supervisor.delivered");
  static tm::Histogram& depth_metric = tm::histogram("serve.stream.shard_depth");

  // The shards this worker owns, in index order.
  std::vector<std::size_t> my_shards;
  for (std::size_t s = worker_index; s < shards_.size();
       s += config_.num_workers)
    my_shards.push_back(s);
  std::atomic<std::uint64_t>& heartbeat = heartbeats_[worker_index];

  // Degrade keys on the owning shard's post-pop depth: the backlog the
  // next flush already faces.
  const auto watermark = static_cast<std::size_t>(
      config_.degrade_watermark * static_cast<double>(config_.shard_capacity));

  // Idle wait when a full polling cycle found every owned shard empty.
  // Blocking on one shard while another fills costs at most this much
  // staleness.
  const auto idle_wait = config_.flush_deadline.count() > 0
                             ? config_.flush_deadline
                             : std::chrono::microseconds(100);

  std::size_t cursor = 0;  // Round-robin over my_shards.
  std::vector<ServeRequest> batch;
  std::vector<ServeResult> results;
  for (;;) {
    // One polling cycle of zero-wait pops, then one blocking pop on
    // the next shard in turn.
    std::size_t n = 0;
    std::size_t shard = my_shards[0];
    for (std::size_t i = 0; i <= my_shards.size(); ++i) {
      const bool last = i == my_shards.size();
      const std::size_t s = my_shards[(cursor + i) % my_shards.size()];
      batch.clear();
      n = shards_[s]->pop_batch(batch, config_.max_batch,
                                last ? idle_wait
                                     : std::chrono::microseconds(0));
      if (n > 0) {
        shard = s;
        cursor = (cursor + i + 1) % my_shards.size();
        break;
      }
    }
    if (n == 0) {
      bool all_drained = true;
      for (const std::size_t s : my_shards)
        all_drained = all_drained && shards_[s]->drained();
      if (all_drained) break;
      continue;
    }
    heartbeat.fetch_add(1, std::memory_order_relaxed);  // Now odd: busy.

    const std::size_t depth_after = shards_[shard]->depth();
    depth_metric.record(static_cast<double>(depth_after));
    suppress_duplicates(batch);
    if (!batch.empty()) {
      const bool degraded =
          config_.degrade_when_saturated &&
          depth_after >= std::max<std::size_t>(watermark, 1);
      results.clear();
      process_batch(batch, degraded, results);

      processed_.fetch_add(batch.size(), std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
      events_metric.add(batch.size());
      batches_metric.add();
      delivered_metric.add(batch.size());
      // Per-stream accounting and the localizer feed precede the sink.
      account_batch(batch, results);
      sink_(results);
    }
    heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
}

void StreamRouter::suppress_duplicates(std::vector<ServeRequest>& batch) {
  static tm::Counter& suppressed_metric =
      tm::counter("serve.supervisor.duplicates_suppressed");

  // A copy sits right behind its original in the stream's FIFO, so it
  // is the request after the last one this worker served on the stream
  // — in this batch or a later one.  Streams arrive in contiguous runs.
  std::size_t kept = 0;
  PerStream* entry = nullptr;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 0 || batch[i].stream_id != batch[i - 1].stream_id)
      entry = &stream_entry(batch[i].stream_id);
    if (batch[i].sequence == entry->last_sequence) continue;
    entry->last_sequence = batch[i].sequence;
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  if (kept < batch.size())
    bump(duplicates_suppressed_, suppressed_metric, batch.size() - kept);
  batch.resize(kept);
}

void StreamRouter::process_batch(std::span<const ServeRequest> batch,
                                 bool degraded,
                                 std::vector<ServeResult>& results) {
  static tm::Histogram& latency_ms = tm::histogram("serve.stream.latency_ms");
  static tm::Counter& degraded_metric =
      tm::counter("serve.stream.degraded_events");
  static tm::Counter& fallback_metric =
      tm::counter("serve.stream.fallback_events");

  // Structure-of-arrays staging: the AoS request batch splits into a
  // contiguous ring array + per-ring polar guesses, and the fused
  // Models::infer_batch assembles ONE feature panel per flush from
  // them.  The equality suite depends on this path producing outputs
  // bit-equal to a direct infer_batch over the same rings.
  thread_local std::vector<recon::ComptonRing> rings;
  thread_local std::vector<double> polar;
  rings.clear();
  polar.clear();
  for (const ServeRequest& r : batch) {
    rings.push_back(r.ring);
    polar.push_back(r.polar_deg_guess);
  }

  const BatchOutputs out = forward(rings, polar, degraded);
  if (out.degraded) bump(degraded_, degraded_metric, batch.size());
  if (out.fallback) bump(fallback_, fallback_metric, batch.size());

  const auto now = std::chrono::steady_clock::now();
  results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ServeResult res;
    res.sequence = batch[i].sequence;
    res.stream_id = batch[i].stream_id;
    res.is_background = out.is_background[i];
    res.d_eta = out.d_eta[i];
    res.degraded = out.degraded;
    res.fallback = out.fallback;
    res.latency_ms = std::chrono::duration<double, std::milli>(
                         now - batch[i].enqueued_at)
                         .count();
    latency_ms.record(res.latency_ms);
    if (res.is_background) background_.fetch_add(1, std::memory_order_relaxed);
    results.push_back(res);
  }
}

BatchOutputs StreamRouter::forward(std::span<const recon::ComptonRing> rings,
                                   std::span<const double> polar,
                                   bool degraded) {
  static tm::Histogram& infer_ms = tm::histogram("serve.stream.infer_ms");
  static tm::Counter& errors_metric =
      tm::counter("serve.stream.batch_exceptions");
  static tm::Counter& retries_metric = tm::counter("serve.supervisor.retries");
  static tm::Counter& recovered_metric =
      tm::counter("serve.supervisor.transient_recovered");
  static tm::Counter& fallback_metric =
      tm::counter("serve.supervisor.fallback_batches");

  for (std::size_t attempt = 0;; ++attempt) {
    // A forward that throws (corrupt weights tripping a contract, an
    // injected transient, an engine bug) must not take the worker down
    // with it.  The shared lock is per attempt, so a health tick or a
    // restore may run during the backoff.
    BatchOutputs out;
    bool complete_recovery = false;
    try {
      core::ReaderLock lock(models_mutex_);
      tm::ScopedTimer timer(infer_ms);
      if (forward_hook_) forward_hook_(rings.size());
      if (engine_) {
        out = engine_(rings, polar, degraded);
      } else {
        // Quarantined models are nulled for this batch: the Models
        // null semantics are exactly the fallback path, flagged.
        // Degraded mode = the null-deta analytic passthrough, by
        // construction the same clamp the Models fallback applies.
        pipeline::Models effective = models_;
        if (!background_ok_) effective.background = nullptr;
        if (!deta_ok_) effective.deta = nullptr;
        auto fused = effective.infer_batch(rings, polar, config_.d_eta_floor,
                                           config_.d_eta_cap,
                                           /*allow_deta=*/!degraded);
        out.is_background = std::move(fused.is_background);
        out.d_eta = std::move(fused.d_eta);
        out.degraded = degraded && effective.deta != nullptr;
        out.fallback = effective.background != models_.background ||
                       effective.deta != models_.deta;
      }
      ADAPT_REQUIRE(out.is_background.size() == rings.size() &&
                        out.d_eta.size() == rings.size(),
                    "inference engine output count mismatch");
      complete_recovery = !out.fallback && state_ == HealthState::kRecovering;
    } catch (const std::exception&) {
      if (attempt == kMaxRetries) break;
      bump(retries_, retries_metric);
      std::this_thread::sleep_for(kRetryBackoff * (1u << attempt));
      continue;
    }
    if (attempt > 0) bump(transient_recovered_, recovered_metric);
    if (out.fallback) bump(fallback_batches_, fallback_metric);
    if (complete_recovery) {
      // A clean batch after a restore completes the recovery: no
      // fallback-flagged batch can follow it.
      core::WriterLock lock(models_mutex_);
      update_state_locked(/*allow_complete_recovery=*/true);
    }
    return out;
  }
  // Retries exhausted: the analytic path.
  bump(batch_errors_, errors_metric);
  bump(fallback_batches_, fallback_metric);
  BatchOutputs out;
  out.fallback = true;
  // No veto: background leaks are flagged, not silently dropped science.
  out.is_background.assign(rings.size(), 0);
  out.d_eta.resize(rings.size());
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const double analytic =
        std::isfinite(rings[i].d_eta) ? rings[i].d_eta : config_.d_eta_floor;
    out.d_eta[i] = std::clamp(analytic, config_.d_eta_floor, config_.d_eta_cap);
  }
  return out;
}

void StreamRouter::watchdog_loop() {
  static tm::Counter& stalls_metric =
      tm::counter("serve.supervisor.watchdog_stalls");

  // Per worker: the heartbeat last seen, when it last moved (or the
  // worker was idle), and whether the batch it holds is already counted.
  struct Sample {
    std::uint64_t beats = 0;
    std::chrono::steady_clock::time_point since;
    bool counted = false;
  };
  std::vector<Sample> samples(config_.num_workers);
  core::UniqueLock lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_wake_.wait_for(lock, kWatchdogInterval);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < samples.size(); ++w) {
      const std::uint64_t beats =
          heartbeats_[w].load(std::memory_order_relaxed);
      Sample& sample = samples[w];
      if (beats % 2 == 0 || beats != sample.beats) {
        sample = Sample{beats, now, false};
      } else if (!sample.counted && now - sample.since > kStallTimeout) {
        sample.counted = true;
        bump(watchdog_stalls_, stalls_metric);
      }
    }
  }
}

void StreamRouter::take_references_locked() {
  if (references_taken_) return;
  references_taken_ = true;
  if (models_.background) background_ref_ = models_.background->weight_checksum();
  if (models_.deta) deta_ref_ = models_.deta->weight_checksum();
}

void StreamRouter::update_state_locked(bool allow_complete_recovery) {
  static tm::Counter& degraded_metric =
      tm::counter("serve.supervisor.state_degraded");
  static tm::Counter& recovering_metric =
      tm::counter("serve.supervisor.state_recovering");
  static tm::Counter& healthy_metric =
      tm::counter("serve.supervisor.state_healthy");

  if (!background_ok_ || !deta_ok_) {
    if (state_ != HealthState::kDegraded) {
      state_ = HealthState::kDegraded;
      bump(degraded_entered_, degraded_metric);
    }
    return;
  }
  if (state_ == HealthState::kDegraded) {
    state_ = HealthState::kRecovering;
    bump(recovering_entered_, recovering_metric);
  }
  if (state_ == HealthState::kRecovering && allow_complete_recovery) {
    state_ = HealthState::kHealthy;
    bump(healthy_entered_, healthy_metric);
  }
}

void StreamRouter::health_tick() {
  static tm::Counter& checksum_metric =
      tm::counter("serve.supervisor.checksum_failures");

  // Only ok -> bad transitions count: a model already quarantined stays
  // quarantined (and uncounted) until an explicit restore re-arms it.
  const auto check = [&](auto* model, std::uint64_t reference, bool& ok) {
    if (ok && model && model->weight_checksum() != reference) {
      ok = false;
      bump(checksum_failures_, checksum_metric);
    }
  };
  core::WriterLock lock(models_mutex_);
  take_references_locked();
  check(models_.background, background_ref_, background_ok_);
  check(models_.deta, deta_ref_, deta_ok_);
  update_state_locked(/*allow_complete_recovery=*/true);
}

void StreamRouter::restore_background(pipeline::BackgroundNet* net) {
  core::WriterLock lock(models_mutex_);
  take_references_locked();
  models_.background = net;
  background_ref_ = net ? net->weight_checksum() : 0;
  background_ok_ = true;
  restored_locked();
}

void StreamRouter::restore_deta(pipeline::DEtaNet* net) {
  core::WriterLock lock(models_mutex_);
  take_references_locked();
  models_.deta = net;
  deta_ref_ = net ? net->weight_checksum() : 0;
  deta_ok_ = true;
  restored_locked();
}

void StreamRouter::restored_locked() {
  static tm::Counter& restores_metric =
      tm::counter("serve.supervisor.restores");
  bump(restores_, restores_metric);
  // Recovery completes on the first clean batch (or a tick), not here:
  // kRecovering marks the drain window.
  update_state_locked(/*allow_complete_recovery=*/false);
}

void StreamRouter::with_models_quiesced(
    const std::function<void(pipeline::Models&)>& fn) {
  ADAPT_REQUIRE(static_cast<bool>(fn), "null quiesce callback");
  core::WriterLock lock(models_mutex_);
  take_references_locked();  // The reference is the pre-mutation state.
  fn(models_);
}

void StreamRouter::account_batch(std::span<const ServeRequest> batch,
                                 std::span<const ServeResult> results) {
  static tm::Counter& mixed_metric = tm::counter("serve.stream.mixed_batches");
  static tm::Histogram& streams_per_batch =
      tm::histogram("serve.stream.batch_streams");

  // The shard filler emits contiguous per-stream runs, so one pass
  // over run boundaries demultiplexes the batch.
  std::size_t runs = 0;
  std::size_t begin = 0;
  while (begin < batch.size()) {
    std::size_t end = begin + 1;
    while (end < batch.size() &&
           batch[end].stream_id == batch[begin].stream_id)
      ++end;
    ++runs;

    PerStream& entry = stream_entry(batch[begin].stream_id);
    const std::size_t count = end - begin;
    entry.processed.fetch_add(count, std::memory_order_relaxed);
    std::uint64_t background = 0;
    std::uint64_t degraded = 0;
    std::uint64_t fallback = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (results[i].is_background) ++background;
      if (results[i].degraded) ++degraded;
      if (results[i].fallback) ++fallback;
    }
    if (background)
      entry.background.fetch_add(background, std::memory_order_relaxed);
    if (degraded)
      entry.degraded.fetch_add(degraded, std::memory_order_relaxed);
    if (fallback)
      entry.fallback.fetch_add(fallback, std::memory_order_relaxed);
    if (entry.localizer)
      entry.localizer->observe(batch.subspan(begin, count),
                               results.subspan(begin, count));
    begin = end;
  }
  streams_per_batch.record(static_cast<double>(runs));
  if (runs > 1) {
    mixed_batches_.fetch_add(1, std::memory_order_relaxed);
    mixed_metric.add();
  }
}

StreamRouter::Stats StreamRouter::stats() const {
  Stats s;
  s.submitted = next_sequence_.load(std::memory_order_relaxed) - 1;
  s.processed = processed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.mixed_batches = mixed_batches_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.background = background_.load(std::memory_order_relaxed);
  s.fallback = fallback_.load(std::memory_order_relaxed);
  s.batch_errors = batch_errors_.load(std::memory_order_relaxed);
  s.input_rejected = input_rejected_.load(std::memory_order_relaxed);
  s.queue_drops = queue_drops_.load(std::memory_order_relaxed);
  s.duplicates_suppressed =
      duplicates_suppressed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.transient_recovered = transient_recovered_.load(std::memory_order_relaxed);
  s.fallback_batches = fallback_batches_.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
  s.restores = restores_.load(std::memory_order_relaxed);
  s.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  s.degraded_entered = degraded_entered_.load(std::memory_order_relaxed);
  s.recovering_entered = recovering_entered_.load(std::memory_order_relaxed);
  s.healthy_entered = healthy_entered_.load(std::memory_order_relaxed);
  {
    core::ReaderLock lock(models_mutex_);
    s.state = state_;
  }
  for (const auto& shard : shards_) {
    s.shed += shard->stats().shed;
    // Streams never span shards, so the shard counts sum exactly.
    s.streams += shard->stream_count();
  }
  return s;
}

std::vector<StreamRouter::StreamStats> StreamRouter::stream_stats() const {
  // The shard ledgers are the source of truth for which streams exist
  // and for submitted / shed / resident (`pushed` counts admissions,
  // i.e. successful submits); the router registry — populated
  // worker-side — contributes the processing-side counters, which may
  // briefly trail the shard ledger for a stream the workers have not
  // reached yet.  Shard rows are collected before the registry lock so
  // the two locks are never held together.
  std::vector<std::vector<ShardQueue::StreamStats>> by_shard;
  by_shard.reserve(shards_.size());
  for (const auto& shard : shards_) by_shard.push_back(shard->stream_stats());

  std::vector<StreamStats> rows;
  core::ReaderLock lock(streams_mutex_);
  for (const auto& shard_rows : by_shard) {
    for (const ShardQueue::StreamStats& shard_row : shard_rows) {
      StreamStats row;
      row.stream_id = shard_row.stream_id;
      row.submitted = shard_row.pushed;
      row.shed = shard_row.shed;
      row.resident = shard_row.resident;
      const auto it = streams_.find(shard_row.stream_id);
      if (it != streams_.end()) {
        const PerStream& entry = *it->second;
        row.processed = entry.processed.load(std::memory_order_relaxed);
        row.background = entry.background.load(std::memory_order_relaxed);
        row.degraded = entry.degraded.load(std::memory_order_relaxed);
        row.fallback = entry.fallback.load(std::memory_order_relaxed);
        if (entry.localizer)
          row.alert_fired = entry.localizer->status().alert_fired;
      }
      rows.push_back(row);
    }
  }
  return rows;
}

std::optional<StreamLocalizer::Status> StreamRouter::localizer_status(
    std::uint32_t stream_id) const {
  core::ReaderLock lock(streams_mutex_);
  const auto it = streams_.find(stream_id);
  if (it == streams_.end() || !it->second->localizer) return std::nullopt;
  return it->second->localizer->status();
}

std::size_t StreamRouter::queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->depth();
  return total;
}

}  // namespace adapt::serve
