#include "fault/matrix.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/contract.hpp"
#include "core/rng.hpp"
#include "loc/incremental.hpp"
#include "quant/serialize.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::fault {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr double kPi = 3.14159265358979323846;

/// Event-row injection rates (per submitted ring).
constexpr double kRingFaultRate = 0.05;
constexpr double kQueueDropRate = 0.03;
constexpr double kQueueDuplicateRate = 0.03;

/// Per-phase drain budget before a fault cell declares a hang.
constexpr std::chrono::milliseconds kDrainTimeout{10000};

/// Fixed-precision float formatting: snprintf is deterministic for a
/// given binary, which is all the two-run byte-diff gate requires.
std::string fmt(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return std::string(buffer);
}

void append_counter(std::string& out, const char* name, std::uint64_t v) {
  out += "  ";
  out += name;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

std::uint64_t cell_seed(std::uint64_t matrix_seed, std::size_t scenario_idx,
                        std::size_t row_idx) {
  std::uint64_t state = matrix_seed ^
                        (0x9E3779B97F4A7C15ULL * (scenario_idx + 1)) ^
                        (0xBF58476D1CE4E5B9ULL * (row_idx + 1));
  return core::splitmix64(state);
}

/// Stream-localizer knobs shared by every row: cheap grid, short
/// cadence (max_batch = 1 makes the cadence exact in ring count).
serve::StreamLocalizerConfig localizer_template(double alert_radius_deg) {
  serve::StreamLocalizerConfig cfg;
  cfg.localizer.resolution_deg = 2.0;
  cfg.localizer.coarse_factor = 2;
  cfg.alert_radius_deg = alert_radius_deg;
  cfg.check_every = 16;
  cfg.min_rings = 8;
  // The scenario rings carry real analytic widths; the synthetic
  // models' served d_eta is seeded noise, and their background veto
  // must not censor the stream.
  cfg.feed_background = true;
  cfg.use_served_d_eta = false;
  return cfg;
}

double angle_deg(const core::Vec3& a, const core::Vec3& b) {
  const double c = std::clamp(a.dot(b), -1.0, 1.0);
  return std::acos(c) * 180.0 / kPi;
}

/// One scenario ring in submission order (burst by burst), bound for
/// its own burst's stream.
struct Submission {
  std::uint32_t stream;
  std::size_t ring_index;
  double polar_guess;
};

/// Row-independent scenario lines (sim accounting, trigger scoring,
/// per-burst offline localization) shared verbatim by every cell in
/// the scenario's row — the comparator sees identical physics text
/// across the column — and the rings every row submits.
struct ScenarioSummary {
  std::string text;
  std::vector<std::size_t> burst_rings;  ///< Ring count per burst.
  std::vector<Submission> order;         ///< Every burst's rings.
};

ScenarioSummary summarize_scenario(const scenario::ScenarioData& data) {
  ScenarioSummary summary;
  std::string& out = summary.text;

  out += "sim: events=" + std::to_string(data.events.size()) +
         " background=" + std::to_string(data.background_events) +
         " flare=" + std::to_string(data.flare_events) +
         " surge=" + std::to_string(data.surge_events) +
         " occulted=" + std::to_string(data.occulted_events) +
         " piled_up=" + std::to_string(data.piled_up_events) +
         " rings=" + std::to_string(data.rings.size()) + "\n";

  const scenario::TriggerScore score = scenario::score_trigger(data);
  out += "trigger: base_rate_hz=" + fmt(data.background_rate_hz, 1) +
         " episodes=" + std::to_string(score.intervals.size()) +
         " true_positives=" + std::to_string(score.true_positives) +
         " false_positives=" + std::to_string(score.false_positives) +
         " efficiency=" + fmt(score.efficiency, 2) +
         " purity=" + fmt(score.purity, 2) + "\n";

  for (std::size_t b = 0; b < data.bursts.size(); ++b) {
    const scenario::BurstTruth& burst = data.bursts[b];
    std::vector<std::size_t> indices =
        scenario::rings_in_window(data, burst.t_start, burst.t_end);
    loc::IncrementalConfig loc_cfg;
    loc::IncrementalLocalizer localizer(loc_cfg);
    for (const std::size_t idx : indices)
      localizer.add_ring(data.rings[idx]);
    double error_deg = 180.0;
    double radius68 = 180.0;
    if (localizer.n_rings() > 0) {
      error_deg = angle_deg(localizer.peak(), burst.direction);
      radius68 = localizer.credible_radius_deg(0.68);
    }
    out += "burst " + std::to_string(b + 1) + ": window=[" +
           fmt(burst.t_start, 2) + "," + fmt(burst.t_end, 2) +
           ") events=" + std::to_string(burst.events) +
           " rings=" + std::to_string(indices.size()) +
           " loc_error_deg=" + fmt(error_deg, 2) +
           " radius68_deg=" + fmt(radius68, 2) + "\n";
    summary.burst_rings.push_back(indices.size());
    for (const std::size_t idx : indices)
      summary.order.push_back(Submission{static_cast<std::uint32_t>(b), idx,
                                         data.config.bursts[b].polar_deg});
  }
  return summary;
}

// ---------------------------------------------------------------------------
// One cell driver for every row: the scenario's rings through a
// StreamRouter with one stream and one shard per burst and streaming
// localization.  The clean row feeds the rings as they are; a fault row
// injects its fault class through the router's queue-fault and forward
// hooks.  One CellRun per cell owns the cell's Injector, the count of
// admitted rings the drains wait for, and the ring indices each burst
// stream was actually fed.
// ---------------------------------------------------------------------------

struct CellRun {
  Injector injector;
  serve::StreamRouter& router;
  const scenario::ScenarioData& data;
  core::Rng probe_rng;
  /// Synthetic probe rings ride a stream past the last burst's, so no
  /// burst localizer ever folds one.
  std::uint32_t probe_stream;
  std::atomic<bool> queue_faults_active{false};
  std::uint64_t admitted = 0;
  /// Per burst stream: the scenario ring indices the router admitted,
  /// in order — the scenario-clock timeline of that stream's folds.
  std::vector<std::vector<std::size_t>> fed;
  std::string errors;

  CellRun(std::uint64_t seed, serve::StreamRouter& served,
          const scenario::ScenarioData& scenario, std::size_t bursts)
      : injector(seed),
        router(served),
        data(scenario),
        probe_rng(seed ^ 0x5eedBULL),
        probe_stream(static_cast<std::uint32_t>(bursts)),
        fed(bursts) {}

  void note(const std::string& msg) {
    if (!errors.empty()) errors += "; ";
    errors += msg;
  }

  bool drain() {
    const std::uint64_t dups =
        injector.ledger()
            .injected[static_cast<std::size_t>(FaultClass::kQueueDuplicate)];
    const auto deadline = Clock::now() + kDrainTimeout;
    for (;;) {
      const auto s = router.stats();
      if (s.processed >= admitted && s.duplicates_suppressed >= dups)
        return true;
      if (Clock::now() >= deadline) {
        note("drain timed out (delivered " + std::to_string(s.processed) +
             " of " + std::to_string(admitted) + ")");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Submit `ring` for `item`'s stream; counts and records an admission.
  std::uint64_t submit(const Submission& item,
                       const recon::ComptonRing& ring) {
    const std::uint64_t seq =
        router.submit(item.stream, ring, item.polar_guess);
    if (seq != 0) {
      ++admitted;
      fed[item.stream].push_back(item.ring_index);
    }
    return seq;
  }

  /// Submit one scenario ring unmodified.
  void feed(const Submission& item) {
    if (submit(item, data.rings[item.ring_index]) == 0)
      note("clean scenario ring rejected");
  }

  /// One synthetic probe ring, drained through as its own batch.
  bool probe() {
    recon::ComptonRing ring = serve::synthetic_ring(probe_rng);
    const double polar = probe_rng.uniform(5.0, 85.0);
    if (router.submit(probe_stream, ring, polar) == 0) {
      note("probe ring rejected");
      return false;
    }
    ++admitted;
    return drain();
  }
};

void run_events_row(CellRun& run, const std::vector<Submission>& order) {
  run.queue_faults_active.store(true, std::memory_order_release);
  for (const Submission& item : order) {
    recon::ComptonRing ring = run.data.rings[item.ring_index];
    const bool corrupted =
        run.injector.maybe_corrupt_ring(ring, kRingFaultRate);
    const std::uint64_t seq = run.submit(item, ring);
    if (corrupted) {
      if (seq == 0)
        run.injector.count_detected(FaultClass::kRingField);
      else
        run.note("corrupt ring admitted by ingress validation");
    }
    // seq == 0 on a clean ring is an injected queue drop, credited
    // from the router counter after the drain.
  }
  run.drain();
  run.queue_faults_active.store(false, std::memory_order_release);

  const auto stats = run.router.stats();
  run.injector.count_detected(FaultClass::kQueueDrop, stats.queue_drops);
  run.injector.count_detected(FaultClass::kQueueDuplicate,
                              stats.duplicates_suppressed);
  run.router.health_tick();
}

void run_forward_row(CellRun& run, const std::vector<Submission>& order) {
  // Transients spread through the stream: every kArmStride-th ring is
  // drained to a batch boundary, armed, and drained through alone, so
  // the armed fault lands on exactly that ring's batch.
  constexpr std::size_t kArmStride = 64;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i % kArmStride == kArmStride - 1) {
      run.drain();
      run.injector.arm_transient(1);
      run.feed(order[i]);
      run.drain();
    } else {
      run.feed(order[i]);
    }
  }
  run.drain();
  run.injector.count_tolerated(FaultClass::kForwardTransient,
                               run.router.stats().transient_recovered);

  for (std::size_t r = 0; r < 2; ++r) {
    run.injector.arm_persistent(serve::kMaxRetries + 1);
    run.probe();
  }
  run.injector.count_detected(FaultClass::kForwardPersistent,
                              run.router.stats().fallback_batches);

  const std::uint64_t stalls_before = run.router.stats().watchdog_stalls;
  run.injector.arm_stall(std::chrono::milliseconds(450));
  run.probe();
  const auto deadline = Clock::now() + kDrainTimeout;
  while (run.router.stats().watchdog_stalls <= stalls_before) {
    if (Clock::now() >= deadline) {
      run.note("watchdog missed an injected stall");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.injector.count_detected(
      FaultClass::kForwardStall,
      run.router.stats().watchdog_stalls - stalls_before);
}

void run_seu_row(CellRun& run, const std::vector<Submission>& order,
                 pipeline::BackgroundNet& background) {
  constexpr std::size_t kDegradedWindow = 16;
  const std::size_t half = order.size() / 2;
  for (std::size_t i = 0; i < half; ++i) run.feed(order[i]);
  run.drain();

  Injector::BitFlip flip;
  run.router.with_models_quiesced([&](pipeline::Models& models) {
    flip = run.injector.flip_int8_weight_bit(*models.background->int8_model());
  });
  run.router.health_tick();
  if (run.router.stats().state != serve::HealthState::kDegraded)
    run.note("SEU not detected by health tick");

  // Flagged-but-served window while quarantined.
  const std::size_t window_end = std::min(half + kDegradedWindow,
                                          order.size());
  for (std::size_t i = half; i < window_end; ++i) run.feed(order[i]);
  run.drain();

  run.router.with_models_quiesced([&](pipeline::Models& models) {
    Injector::flip_back(*models.background->int8_model(), flip);
  });
  run.router.restore_background(&background);

  for (std::size_t i = window_end; i < order.size(); ++i) run.feed(order[i]);
  if (order.empty() || window_end == order.size()) run.probe();
  run.drain();
  run.router.health_tick();
  if (run.router.stats().state != serve::HealthState::kHealthy)
    run.note("pipeline did not return to healthy after restore");
  run.injector.count_detected(FaultClass::kWeightBit,
                              run.router.stats().checksum_failures);
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

void run_model_bytes_row(CellRun& run, const std::vector<Submission>& order,
                         pipeline::DEtaNet& deta,
                         const std::string& scratch_dir,
                         std::uint64_t seed) {
  constexpr std::size_t kRounds = 4;
  for (const Submission& item : order) run.feed(item);
  run.drain();

  fs::path dir;
  if (scratch_dir.empty()) {
    std::error_code ec;
    dir = fs::temp_directory_path(ec);
    if (ec) dir = ".";
    dir /= "adapt_matrix_" + std::to_string(seed) + "_" +
           std::to_string(static_cast<long>(::getpid()));
  } else {
    dir = scratch_dir;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    run.note("cannot create scratch dir " + dir.string());
    return;
  }
  const fs::path good = dir / "good_model.adnn";
  const fs::path bad = dir / "garbled_model.bin";
  if (!deta.save(good.string())) {
    run.note("cannot write ADNN fixture");
    return;
  }
  const std::string bytes = read_file(good);
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (bytes.empty()) {
      run.note("model fixture unreadable");
      break;
    }
    const std::string garbled = run.injector.garble_bytes(bytes);
    if (!write_file(bad, garbled)) {
      run.note("cannot write garbled model");
      continue;
    }
    if (quant::load_model(bad.string()).has_value())
      run.note("garbled model bytes were accepted by the loader");
    else
      run.injector.count_detected(FaultClass::kModelBytes);
  }
  fs::remove(good, ec);
  fs::remove(bad, ec);
  if (scratch_dir.empty()) fs::remove(dir, ec);
}

/// One `stream N:` line per burst: what the burst's localizer folded,
/// its radius checks, and whether (and when, on the scenario clock)
/// it alerted.
std::string stream_lines(CellRun& run, const ScenarioSummary& summary) {
  std::string out;
  for (std::size_t b = 0; b < summary.burst_rings.size(); ++b) {
    const auto status =
        run.router.localizer_status(static_cast<std::uint32_t>(b));
    out += "stream " + std::to_string(b + 1) + ": fed=" +
           std::to_string(summary.burst_rings[b]);
    if (!status) {
      out += " localizer=absent\n";
      if (run.fed[b].empty()) continue;
      run.note("missing localizer status for stream " + std::to_string(b));
      continue;
    }
    out += " accepted=" + std::to_string(status->rings_accepted) +
           " checks=" + std::to_string(status->radius_checks) +
           " last_radius_deg=" + fmt(status->last_radius_deg, 2);
    if (status->alert_fired) {
      out += " alert=yes alert_rings=" + std::to_string(status->alert_rings) +
             " alert_radius_deg=" + fmt(status->alert_radius_deg, 2);
      // Alert latency on the SCENARIO clock: the alert fired once the
      // localizer had folded `alert_rings` rings, i.e. at the arrival
      // time of that admitted ring in the stream — no wall clock.
      const auto& indices = run.fed[b];
      if (status->alert_rings >= 1 && status->alert_rings <= indices.size()) {
        const double t_alert =
            run.data.ring_times[indices[status->alert_rings - 1]];
        out += " alert_t_s=" + fmt(t_alert, 3) + " alert_latency_s=" +
               fmt(t_alert - run.data.bursts[b].t_start, 3);
      }
    } else {
      out += " alert=no";
    }
    out += "\n";
  }
  return out;
}

std::string run_cell(const scenario::ScenarioData& data,
                     const ScenarioSummary& summary, MatrixRow row,
                     std::uint64_t seed, const std::string& scratch_dir,
                     Ledger& ledger, std::string& errors) {
  pipeline::BackgroundNet background =
      serve::synthetic_background_net_int8(seed ^ 0xB16B00B5ULL);
  pipeline::DEtaNet deta = serve::synthetic_deta_net(seed ^ 0xD37AULL);

  const std::vector<Submission>& order = summary.order;
  const std::size_t bursts = summary.burst_rings.size();

  serve::RouterConfig cfg;
  cfg.num_shards = std::max<std::size_t>(1, bursts);
  cfg.num_workers = 1;
  // Both caps hold every ring, each possible duplicate copy, and the
  // probes, so nothing is ever shed.
  cfg.shard_capacity = 2 * order.size() + 64;
  cfg.per_stream_cap = cfg.shard_capacity;
  cfg.max_batch = 1;  // Every ring its own batch (see matrix.hpp).
  cfg.degrade_when_saturated = false;
  cfg.localize = true;
  cfg.localizer_template = localizer_template(data.config.alert_radius_deg);

  serve::StreamRouter router(pipeline::Models{&background, &deta}, cfg,
                             [](std::span<const serve::ServeResult>) {});
  std::string out;
  serve::StreamRouter::Stats stats;
  {
    CellRun run(seed, router, data, bursts);
    router.set_queue_fault_hook([&run] {
      if (!run.queue_faults_active.load(std::memory_order_acquire))
        return serve::QueueFault::kNone;
      return run.injector.next_queue_fault(kQueueDropRate,
                                           kQueueDuplicateRate);
    });
    router.set_forward_hook(
        [&run](std::size_t n) { run.injector.on_forward_attempt(n); });
    router.start();

    switch (row) {
      case MatrixRow::kNone:
        for (const Submission& item : order) run.feed(item);
        break;
      case MatrixRow::kEvents:
        run_events_row(run, order);
        break;
      case MatrixRow::kForward:
        run_forward_row(run, order);
        break;
      case MatrixRow::kSeu:
        run_seu_row(run, order, background);
        break;
      case MatrixRow::kModelBytes:
        run_model_bytes_row(run, order, deta, scratch_dir, seed);
        break;
    }

    run.drain();
    router.health_tick();
    router.stop();

    out = stream_lines(run, summary);
    ledger = run.injector.ledger();
    stats = router.stats();
    if (stats.shed != 0) run.note("router shed events");
    if (stats.state != serve::HealthState::kHealthy)
      run.note("cell ended in state " +
               std::string(serve::to_string(stats.state)));
    errors = run.errors;
  }

  out += "serve counters:\n";
  append_counter(out, "submitted", stats.submitted);
  if (row == MatrixRow::kNone) {
    append_counter(out, "processed", stats.processed);
    append_counter(out, "batches", stats.batches);
    append_counter(out, "shed", stats.shed);
    append_counter(out, "rejected", stats.rejected);
    append_counter(out, "degraded", stats.degraded);
    append_counter(out, "background", stats.background);
    append_counter(out, "fallback", stats.fallback);
    append_counter(out, "streams", stats.streams);
    return out;
  }
  append_counter(out, "input_rejected", stats.input_rejected);
  append_counter(out, "queue_drops", stats.queue_drops);
  append_counter(out, "duplicates_suppressed", stats.duplicates_suppressed);
  append_counter(out, "retries", stats.retries);
  append_counter(out, "transient_recovered", stats.transient_recovered);
  append_counter(out, "fallback_batches", stats.fallback_batches);
  append_counter(out, "checksum_failures", stats.checksum_failures);
  append_counter(out, "restores", stats.restores);
  append_counter(out, "watchdog_stalls", stats.watchdog_stalls);
  append_counter(out, "delivered", stats.processed);
  append_counter(out, "delivered_fallback", stats.fallback);
  append_counter(out, "delivered_degraded", stats.degraded);
  out += std::string("final state: ") + serve::to_string(stats.state) + "\n";
  return out;
}

}  // namespace

const char* to_string(MatrixRow row) {
  switch (row) {
    case MatrixRow::kNone:
      return "none";
    case MatrixRow::kEvents:
      return "events";
    case MatrixRow::kForward:
      return "forward";
    case MatrixRow::kSeu:
      return "seu";
    case MatrixRow::kModelBytes:
      return "model_bytes";
  }
  return "?";
}

MatrixResult run_matrix(const MatrixSpec& spec) {
  ADAPT_REQUIRE(!spec.scenarios.empty(), "matrix needs at least one scenario");

  MatrixResult result;
  result.ok = true;
  result.report = "fault x scenario matrix seed=" + std::to_string(spec.seed) +
                  " scenarios=" + std::to_string(spec.scenarios.size()) +
                  " rows=" + std::to_string(kMatrixRowCount) + "\n\n";

  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    const scenario::ScenarioConfig& config = spec.scenarios[s];
    // The scenario realization depends only on (matrix seed, scenario
    // index): every row replays the identical timeline.
    std::uint64_t sim_chain = spec.seed ^
                              (0x94D049BB133111EBULL * (s + 1));
    const std::uint64_t sim_seed = core::splitmix64(sim_chain);
    const scenario::ScenarioData data =
        scenario::simulate_scenario(config, sim_seed);
    const ScenarioSummary summary = summarize_scenario(data);

    for (std::size_t r = 0; r < kMatrixRowCount; ++r) {
      const MatrixRow row = static_cast<MatrixRow>(r);
      if (!spec.only_row.empty() && spec.only_row != to_string(row)) continue;

      CellResult cell;
      cell.scenario = config.name;
      cell.row = row;
      cell.seed = cell_seed(spec.seed, s, r);

      // No fault is injected in the clean row: its ledger stays
      // all-zero, which is balanced by definition.
      const std::string body = run_cell(data, summary, row, cell.seed,
                                        spec.scratch_dir, cell.ledger,
                                        cell.errors);

      cell.ok = cell.errors.empty() && cell.ledger.balanced();
      cell.report = "=== cell scenario=" + cell.scenario +
                    " fault=" + to_string(row) +
                    " seed=" + std::to_string(cell.seed) + "\n" +
                    summary.text + body;
      if (row != MatrixRow::kNone) cell.report += cell.ledger.format();
      cell.report += std::string("ledger invariant: ") +
                     (cell.ledger.balanced() ? "balanced" : "IMBALANCED") +
                     "\n";
      cell.report += std::string("cell status: ") +
                     (cell.ok ? "ok" : ("FAILED (" + cell.errors + ")")) +
                     "\n\n";

      result.report += cell.report;
      result.ok = result.ok && cell.ok;
      result.cells.push_back(std::move(cell));
    }
  }

  std::size_t failed = 0;
  for (const CellResult& cell : result.cells)
    if (!cell.ok) ++failed;
  result.report += "matrix: cells=" + std::to_string(result.cells.size()) +
                   " ok=" + std::to_string(result.cells.size() - failed) +
                   " failed=" + std::to_string(failed) + "\n";
  result.report += std::string("matrix status: ") +
                   (result.ok ? "ok" : "FAILED") + "\n";
  return result;
}

}  // namespace adapt::fault
