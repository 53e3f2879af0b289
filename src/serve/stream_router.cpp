#include "serve/stream_router.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/require.hpp"
#include "core/telemetry.hpp"

namespace adapt::serve {

namespace tm = core::telemetry;

StreamRouter::StreamRouter(pipeline::Models models, RouterConfig config,
                           ResultSink sink)
    : models_(models), config_(config), sink_(std::move(sink)) {
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
}

StreamRouter::~StreamRouter() { stop(); }

void StreamRouter::start() {
  ADAPT_REQUIRE(!started_.exchange(true), "router already started");
  workers_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

void StreamRouter::set_engine(InferenceEngine engine) {
  ADAPT_REQUIRE(!started_.load(), "set_engine must precede start()");
  engine_ = std::move(engine);
}

void StreamRouter::set_alert_callback(StreamAlertCallback on_alert) {
  ADAPT_REQUIRE(!started_.load(), "set_alert_callback must precede start()");
  on_alert_ = std::move(on_alert);
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
  // Hot path: sequence assignment + one shard push, nothing else.  The
  // router's stream registry is populated worker-side (account_batch);
  // per-stream submission counts are the shard ledger's per-stream
  // `pushed`, maintained under the same shard lock the push already
  // takes.
  static tm::Counter& submitted_metric = tm::counter("serve.stream.submitted");
  ServeRequest request;
  request.ring = ring;
  request.polar_deg_guess = polar_deg_guess;
  request.stream_id = stream_id;
  request.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  request.enqueued_at = std::chrono::steady_clock::now();
  const std::uint64_t seq = request.sequence;
  if (!shards_[shard_of(stream_id)]->push(std::move(request))) {
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
}

void StreamRouter::worker_loop(std::size_t worker_index) {
  static tm::Counter& events_metric = tm::counter("serve.stream.events");
  static tm::Counter& batches_metric = tm::counter("serve.stream.batches");
  static tm::Counter& errors_metric =
      tm::counter("serve.stream.batch_exceptions");
  static tm::Histogram& depth_metric = tm::histogram("serve.stream.shard_depth");

  // The shards this worker owns, in index order.
  std::vector<std::size_t> my_shards;
  for (std::size_t s = worker_index; s < shards_.size();
       s += config_.num_workers)
    my_shards.push_back(s);

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
    in_flight_.fetch_add(1, std::memory_order_relaxed);

    const std::size_t depth_after = shards_[shard]->depth();
    depth_metric.record(static_cast<double>(depth_after));
    const bool degraded = config_.degrade_when_saturated &&
                          depth_after >= std::max<std::size_t>(watermark, 1);
    results.clear();
    // A forward that throws (corrupt weights tripping a contract, an
    // injected transient, an engine bug) must not take the worker down
    // with it: the batch fails over to the analytic emergency path.
    try {
      process_batch(batch, degraded, results);
    } catch (const std::exception&) {
      batch_errors_.fetch_add(1, std::memory_order_relaxed);
      errors_metric.add();
      results.clear();
      emergency_results(batch, results);
    }

    processed_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    events_metric.add(n);
    batches_metric.add();
    // Per-stream accounting and the localizer feed precede the sink.
    account_batch(batch, results);
    sink_(results);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void StreamRouter::process_batch(std::span<const ServeRequest> batch,
                                 bool degraded,
                                 std::vector<ServeResult>& results) {
  static tm::Histogram& infer_ms = tm::histogram("serve.stream.infer_ms");
  static tm::Histogram& latency_ms = tm::histogram("serve.stream.latency_ms");
  static tm::Counter& degraded_metric =
      tm::counter("serve.stream.degraded_events");

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

  BatchOutputs out;
  {
    tm::ScopedTimer timer(infer_ms);
    if (engine_) {
      out = engine_(rings, polar, degraded);
    } else {
      // Degraded mode = the null-deta analytic passthrough, by
      // construction the same clamp the Models fallback applies.
      auto fused = models_.infer_batch(rings, polar, config_.d_eta_floor,
                                       config_.d_eta_cap,
                                       /*allow_deta=*/!degraded);
      out.is_background = std::move(fused.is_background);
      out.d_eta = std::move(fused.d_eta);
      out.degraded = degraded && models_.deta != nullptr;
    }
  }
  ADAPT_REQUIRE(out.is_background.size() == batch.size() &&
                    out.d_eta.size() == batch.size(),
                "inference engine output count mismatch");

  if (out.degraded) {
    degraded_.fetch_add(batch.size(), std::memory_order_relaxed);
    degraded_metric.add(batch.size());
  }
  if (out.fallback)
    fallback_.fetch_add(batch.size(), std::memory_order_relaxed);

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

void StreamRouter::emergency_results(std::span<const ServeRequest> batch,
                                     std::vector<ServeResult>& results) {
  static tm::Counter& fallback_metric =
      tm::counter("serve.stream.fallback_events");

  fallback_.fetch_add(batch.size(), std::memory_order_relaxed);
  fallback_metric.add(batch.size());
  const auto now = std::chrono::steady_clock::now();
  results.reserve(batch.size());
  for (const ServeRequest& r : batch) {
    ServeResult res;
    res.sequence = r.sequence;
    res.stream_id = r.stream_id;
    res.is_background = 0;  // No veto: background leaks are flagged, not
                            // silently dropped science.
    const double analytic =
        std::isfinite(r.ring.d_eta) ? r.ring.d_eta : config_.d_eta_floor;
    res.d_eta = std::clamp(analytic, config_.d_eta_floor, config_.d_eta_cap);
    res.fallback = true;
    res.latency_ms =
        std::chrono::duration<double, std::milli>(now - r.enqueued_at).count();
    results.push_back(res);
  }
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
