#include "fault/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/contract.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "quant/fuse.hpp"
#include "quant/qat_io.hpp"
#include "quant/quantized_mlp.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::fault {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Campaign-side orchestration state threaded through the phases.
struct Run {
  const CampaignSpec& spec;
  Injector injector;
  serve::Supervisor& sup;
  core::Rng ring_rng;
  std::atomic<bool> queue_faults_active{false};
  std::uint64_t admitted = 0;
  std::string errors;

  Run(const CampaignSpec& s, serve::Supervisor& supervisor)
      : spec(s),
        injector(s.seed, s.enabled),
        sup(supervisor),
        ring_rng(s.seed ^ 0x5eedBULL) {}

  void note(const std::string& msg) {
    if (!errors.empty()) errors += "; ";
    errors += msg;
  }

  /// Wait until every admitted event has been delivered (and every
  /// injected duplicate suppressed).  Returns false on timeout — a
  /// hang, which the campaign reports instead of deadlocking CI.
  bool drain() {
    const std::uint64_t dups =
        injector.ledger()
            .injected[static_cast<std::size_t>(FaultClass::kQueueDuplicate)];
    const auto deadline = Clock::now() + spec.drain_timeout;
    for (;;) {
      const auto s = sup.stats();
      if (s.delivered >= admitted && s.duplicates_suppressed >= dups)
        return true;
      if (Clock::now() >= deadline) {
        note("drain timed out (delivered " + std::to_string(s.delivered) +
             " of " + std::to_string(admitted) + ")");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Submit one known-good probe ring and drain it through, so each
  /// probe is its own batch — keeping per-batch counters (retries,
  /// fallback batches) deterministic for the report.
  bool probe() {
    recon::ComptonRing ring = serve::synthetic_ring(ring_rng);
    const double polar = ring_rng.uniform(5.0, 85.0);
    if (sup.submit(ring, polar) == 0) {
      note("probe ring rejected");
      return false;
    }
    ++admitted;
    return drain();
  }
};

void stream_with_event_faults(Run& run) {
  run.queue_faults_active.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < run.spec.events; ++i) {
    recon::ComptonRing ring = serve::synthetic_ring(run.ring_rng);
    const double polar = run.ring_rng.uniform(5.0, 85.0);
    const bool corrupted =
        run.injector.maybe_corrupt_ring(ring, run.spec.ring_fault_rate);
    const std::uint64_t seq = run.sup.submit(ring, polar);
    if (corrupted) {
      if (seq == 0) {
        run.injector.count_detected(FaultClass::kRingField);
      } else {
        run.note("corrupt ring admitted by ingress validation");
        ++run.admitted;
      }
    } else if (seq != 0) {
      ++run.admitted;
    }
    // seq == 0 on a clean ring is an injected queue drop; credited
    // from the supervisor's counter after the drain.
  }
  run.drain();
  run.queue_faults_active.store(false, std::memory_order_release);

  const auto stats = run.sup.stats();
  run.injector.count_detected(FaultClass::kQueueDrop, stats.queue_drops);
  run.injector.count_detected(FaultClass::kQueueDuplicate,
                              stats.duplicates_suppressed);
  run.sup.health_tick();
}

void run_forward_faults(Run& run) {
  const std::size_t retry_budget = run.spec.supervisor.max_retries;

  const std::uint64_t recovered_before =
      run.sup.stats().transient_recovered;
  for (std::size_t r = 0; r < run.spec.transient_rounds; ++r) {
    run.injector.arm_transient(1);
    run.probe();
  }
  run.injector.count_tolerated(
      FaultClass::kForwardTransient,
      run.sup.stats().transient_recovered - recovered_before);

  const std::uint64_t fallback_before = run.sup.stats().fallback_batches;
  for (std::size_t r = 0; r < run.spec.persistent_rounds; ++r) {
    run.injector.arm_persistent(retry_budget + 1);
    run.probe();
  }
  run.injector.count_detected(
      FaultClass::kForwardPersistent,
      run.sup.stats().fallback_batches - fallback_before);

  for (std::size_t r = 0; r < run.spec.stall_rounds; ++r) {
    const std::uint64_t restarts_before = run.sup.stats().watchdog_restarts;
    run.injector.arm_stall(run.spec.stall_duration);
    run.probe();
    // The restart lands once the stalled forward returns; give the
    // watchdog its own deadline rather than assuming ordering against
    // the delivery.
    const auto deadline = Clock::now() + run.spec.drain_timeout;
    while (run.sup.stats().watchdog_restarts <= restarts_before &&
           run.spec.enabled) {
      if (Clock::now() >= deadline) {
        run.note("watchdog missed an injected stall");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    run.injector.count_detected(
        FaultClass::kForwardStall,
        run.sup.stats().watchdog_restarts - restarts_before);
  }
}

void run_weight_faults(Run& run, pipeline::BackgroundNet& background,
                       pipeline::DEtaNet& deta) {
  if (!run.spec.enabled) {
    // Disabled campaigns stream the same probe traffic with no flips,
    // so the delivered totals stay comparable to an enabled run.
    for (std::size_t r = 0; r < run.spec.weight_bit_rounds; ++r)
      for (std::size_t e = 0; e < 2 * run.spec.events_per_degraded_window;
           ++e)
        run.probe();
    return;
  }

  const std::uint64_t checksum_before = run.sup.stats().checksum_failures;
  for (std::size_t r = 0; r < run.spec.weight_bit_rounds; ++r) {
    const bool hit_int8 = (r % 2 == 0);
    Injector::BitFlip flip;
    std::vector<std::vector<float>> fp32_snapshot;
    run.sup.with_models_quiesced([&](pipeline::Models& m) {
      if (hit_int8) {
        flip = run.injector.flip_int8_weight_bit(*m.background->int8_model());
      } else {
        fp32_snapshot = m.deta->model()->snapshot_weights();
        run.injector.corrupt_fp32_weight(*m.deta->model());
      }
    });

    // The flip is invisible until a health tick compares digests.
    run.sup.health_tick();
    if (run.sup.state() != serve::HealthState::kDegraded)
      run.note("SEU not detected by health tick");

    // Service continues while quarantined — flagged, never silent.
    for (std::size_t e = 0; e < run.spec.events_per_degraded_window; ++e)
      run.probe();

    // Restore pristine weights (XOR flip-back / snapshot), then re-arm.
    run.sup.with_models_quiesced([&](pipeline::Models& m) {
      if (hit_int8)
        Injector::flip_back(*m.background->int8_model(), flip);
      else
        m.deta->model()->restore_weights(fp32_snapshot);
    });
    if (hit_int8)
      run.sup.restore_background(&background);
    else
      run.sup.restore_deta(&deta);

    // The first clean batch completes the recovery.
    for (std::size_t e = 0; e < run.spec.events_per_degraded_window; ++e)
      run.probe();
    if (run.sup.state() != serve::HealthState::kHealthy)
      run.note("pipeline did not return to healthy after restore");
  }
  run.injector.count_detected(
      FaultClass::kWeightBit,
      run.sup.stats().checksum_failures - checksum_before);
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
}

/// A calibrated QAT stack at the paper architecture, built the same
/// way the export pipeline does (build_mlp -> fuse_bn ->
/// build_qat_model -> calibration forwards), so the serialized ADQT
/// file the campaign garbles is structurally real.
nn::Sequential build_calibrated_qat(std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Sequential fp32 = nn::build_mlp(nn::background_net_spec(13, true), rng);
  const auto batch = [&](std::uint64_t s) {
    core::Rng brng(s);
    nn::Tensor x(64, 13);
    for (auto& v : x.vec()) v = static_cast<float>(brng.uniform(-2.0, 2.0));
    return x;
  };
  for (int pass = 0; pass < 4; ++pass)
    (void)fp32.forward(batch(seed + 1 + static_cast<std::uint64_t>(pass)),
                       true);
  const auto fused = quant::fuse_bn(fp32);
  core::Rng qrng(seed + 99);
  nn::Sequential qat = quant::build_qat_model(fused, qrng);
  for (int pass = 0; pass < 4; ++pass)
    (void)qat.forward(batch(seed + 50 + static_cast<std::uint64_t>(pass)),
                      true);
  return qat;
}

void run_model_byte_faults(Run& run, pipeline::DEtaNet& deta) {
  if (run.spec.model_bytes_rounds == 0) return;

  fs::path dir;
  if (run.spec.scratch_dir.empty()) {
    std::error_code ec;
    dir = fs::temp_directory_path(ec);
    if (ec) dir = ".";
    dir /= "adapt_chaos_" + std::to_string(run.spec.seed) + "_" +
           std::to_string(static_cast<long>(::getpid()));
  } else {
    dir = run.spec.scratch_dir;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    run.note("cannot create scratch dir " + dir.string());
    return;
  }

  const fs::path good_nn = dir / "good_model.adnn";
  const fs::path good_qat = dir / "good_model.adqt";
  const fs::path bad = dir / "garbled_model.bin";
  if (!deta.save(good_nn.string())) run.note("cannot write ADNN fixture");
  nn::Sequential qat = build_calibrated_qat(run.spec.seed ^ 0xDEADULL);
  nn::Standardizer qat_std;
  if (!quant::save_qat_model(qat, qat_std, {{"fixture", 1.0}},
                             good_qat.string()))
    run.note("cannot write ADQT fixture");

  for (std::size_t r = 0; r < run.spec.model_bytes_rounds; ++r) {
    const bool use_qat = (r % 2 == 1);
    const std::string bytes = read_file(use_qat ? good_qat : good_nn);
    if (bytes.empty()) {
      run.note("model fixture unreadable");
      continue;
    }
    if (!run.spec.enabled) {
      // Baseline: untouched files must load.
      const bool loaded = use_qat
                              ? quant::load_qat_model(good_qat.string())
                                    .has_value()
                              : nn::load_model(good_nn.string()).has_value();
      if (!loaded) run.note("pristine model failed to load");
      continue;
    }
    const std::string garbled = run.injector.garble_bytes(bytes);
    if (!write_file(bad, garbled)) {
      run.note("cannot write garbled model");
      continue;
    }
    const bool accepted =
        use_qat ? quant::load_qat_model(bad.string()).has_value()
                : nn::load_model(bad.string()).has_value();
    if (accepted)
      run.note("garbled model bytes were accepted by the loader");
    else
      run.injector.count_detected(FaultClass::kModelBytes);
  }

  fs::remove(good_nn, ec);
  fs::remove(good_qat, ec);
  fs::remove(bad, ec);
  if (run.spec.scratch_dir.empty()) fs::remove(dir, ec);
}

void append_counter(std::string& out, const char* name, std::uint64_t v) {
  out += "  ";
  out += name;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec) {
  ADAPT_REQUIRE(spec.events > 0, "campaign needs a nonzero event stream");

  // Serving knobs the accounting depends on: the shard must never
  // shed (every admitted event is part of the ledger) — neither at
  // its capacity nor at the per-stream cap, since every ring rides
  // stream 0 — and overload degradation would make flag counts
  // timing-dependent.
  serve::SupervisorConfig cfg = spec.supervisor;
  cfg.router.shard_capacity =
      std::max(cfg.router.shard_capacity, spec.events + 64);
  cfg.router.per_stream_cap = cfg.router.shard_capacity;
  cfg.router.max_batch =
      std::min(cfg.router.max_batch, cfg.router.shard_capacity);
  cfg.router.degrade_when_saturated = false;

  pipeline::BackgroundNet background =
      serve::synthetic_background_net_int8(spec.seed ^ 0xB16B00B5ULL);
  pipeline::DEtaNet deta = serve::synthetic_deta_net(spec.seed ^ 0xD37AULL);
  pipeline::Models models{&background, &deta};

  serve::Supervisor sup(models, cfg, [](std::span<const serve::ServeResult>) {
    // The campaign reads delivery totals from SupervisorStats; results
    // themselves need no further routing here.
  });

  CampaignResult result;
  {
    Run run(spec, sup);
    sup.set_queue_fault_hook([&run] {
      if (!run.queue_faults_active.load(std::memory_order_acquire))
        return serve::QueueFault::kNone;
      return run.injector.next_queue_fault(run.spec.queue_drop_rate,
                                           run.spec.queue_duplicate_rate);
    });
    sup.set_forward_hook(
        [&run](std::size_t n) { run.injector.on_forward_attempt(n); });
    sup.start();

    stream_with_event_faults(run);
    run_forward_faults(run);
    run_weight_faults(run, background, deta);
    run_model_byte_faults(run, deta);

    run.drain();
    sup.health_tick();
    sup.stop();

    result.ledger = run.injector.ledger();
    result.supervisor = sup.stats();
    result.delivered_clean = result.supervisor.delivered -
                             result.supervisor.delivered_fallback -
                             result.supervisor.delivered_degraded;
    if (result.supervisor.state != serve::HealthState::kHealthy)
      run.note("campaign ended in state " +
               std::string(to_string(result.supervisor.state)));
    result.ok = run.errors.empty() && result.ledger.balanced();
    result.errors = run.errors;
  }

  std::string report = "chaos campaign seed=" + std::to_string(spec.seed) +
                       " events=" + std::to_string(spec.events) +
                       (spec.enabled ? "" : " (injection disabled)") + "\n";
  report += result.ledger.format();
  report += "supervisor counters:\n";
  const auto& s = result.supervisor;
  append_counter(report, "submitted", s.submitted);
  append_counter(report, "input_rejected", s.input_rejected);
  append_counter(report, "queue_drops", s.queue_drops);
  append_counter(report, "duplicates_suppressed", s.duplicates_suppressed);
  append_counter(report, "retries", s.retries);
  append_counter(report, "transient_recovered", s.transient_recovered);
  append_counter(report, "fallback_batches", s.fallback_batches);
  append_counter(report, "checksum_failures", s.checksum_failures);
  append_counter(report, "restores", s.restores);
  append_counter(report, "watchdog_restarts", s.watchdog_restarts);
  append_counter(report, "state_degraded_entered", s.degraded_entered);
  append_counter(report, "state_recovering_entered", s.recovering_entered);
  append_counter(report, "state_healthy_entered", s.healthy_entered);
  append_counter(report, "delivered", s.delivered);
  append_counter(report, "delivered_fallback", s.delivered_fallback);
  append_counter(report, "delivered_degraded", s.delivered_degraded);
  append_counter(report, "delivered_clean", result.delivered_clean);
  report += std::string("final state: ") + to_string(s.state) + "\n";
  report += std::string("ledger invariant: ") +
            (result.ledger.balanced() ? "balanced" : "IMBALANCED") + "\n";
  result.report = report;
  return result;
}

}  // namespace adapt::fault
