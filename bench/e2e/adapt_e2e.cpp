/// \file adapt_e2e.cpp
/// One end-to-end benchmark for both paths of the system, timed
/// through public entry points only (bench/e2e/README.md has the
/// metric glossary and the A/B protocol):
///
///   * burst_table12 — the paper's Fig. 6 loop per burst, i.e. the
///     Tables I/II "Total": EventReconstructor::reconstruct_all followed
///     by MlLocalizer::run.  A pool of simulated 1 MeV/cm^2 normally
///     incident bursts is built before the clock starts (simulation
///     stands in for the detector) and replayed pass after pass; a
///     burst's cost is the median of its passes.
///   * fleet_alert — one producer submits a wave of rings over 256
///     streams, each with its own localizer, to a serve::StreamRouter,
///     blocks until the sink has delivered the whole wave, and submits
///     the next.  The loop is closed, so a slow moment of the host
///     stretches one wave instead of piling up a backlog that every
///     later event inherits.
///
/// Usage:
///   adapt_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
///             [--traced] [--models DIR] [--out FILE] [--git REV]
///
/// Prints one `name value unit n=samples` line per metric and one line
/// per output check, then, as the last line, a JSON object with the
/// keys correct / attempted / failed / metrics (end-to-end metrics when
/// untraced, per-layer metrics when traced).  Exits 1 when an output
/// check fails and 2 on a malformed command line.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/cpu_features.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "core/vec3.hpp"
#include "detector/geometry.hpp"
#include "eval/model_provider.hpp"
#include "eval/trial.hpp"
#include "nn/kernels/kernels.hpp"
#include "pipeline/ml_localizer.hpp"
#include "recon/event_reconstruction.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"
#include "sim/exposure.hpp"

using namespace adapt;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Digests of the networks the burst workload trains into its own cache
// (default ModelProviderConfig over burst_setup()).  A different digest
// means the timed networks are not the ones the baseline was taken on.
constexpr std::uint64_t kBackgroundChecksum = 0x702f2987c336f6b7;
constexpr std::uint64_t kDEtaChecksum = 0xac2921109f43e69b;

// setup_s is the median of timed program-state builds: kSetupRepeats
// before the measurement, then one after every burst pass or serve
// episode, so one busy moment of the shared host cannot set it alone.
constexpr int kSetupRepeats = 21;
// The burst pool: kAccuracyBursts fixed bursts, the ones
// eval::run_trials(0) draws, whatever --seed says, then kSeededBursts
// drawn from the seed.  The science guard reads the first pass over the
// fixed bursts, so its expected values are pinned here and a run fails
// when the median error grows by more than kErrP50Tolerance (relative)
// or the failure rate by more than kFailFracTolerance (absolute).
constexpr std::size_t kAccuracyBursts = 100;
constexpr std::size_t kSeededBursts = 100;
constexpr double kFailDeg = 10.0;
constexpr double kRefErrP50Deg = 1.0105783;
constexpr double kRefFailFrac = 0.0;
constexpr double kErrP50Tolerance = 0.02;
constexpr double kFailFracTolerance = 0.003;
// Deep enough queues that no wave sheds or degrades.
constexpr std::size_t kQueueCapacity = 65536;
// Twice the 3 deg alert radius.  Alert peaks sit on 2 deg pixel
// centres; over seeds 1-100 the worst of an episode's 256 alerts read
// 2.57-4.91 deg, while a broken localizer errs by tens of degrees.
constexpr double kAlertToleranceDeg = 6.0;
// Every kCheckEvery-th result is compared with a direct forward.
constexpr std::uint64_t kCheckEvery = 1000;

// ---------------------------------------------------------------------
// Metric catalogue.  BENCHMARK.json lists the same names and units.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    // Burst path ledger: the six *_ms rows sum to pipeline.burst_mean_ms.
    {"pipeline.burst_mean_ms", "ms"},
    {"recon.reconstruct_ms", "ms"},
    {"pipeline.setup_ms", "ms"},
    {"pipeline.bkg_nn_ms", "ms"},
    {"pipeline.deta_nn_ms", "ms"},
    {"loc.approx_refine_ms", "ms"},
    {"pipeline.unattributed_ms", "ms"},
    {"pipeline.iterations_mean", "count"},
    {"pipeline.converged_frac", "fraction"},
    {"pipeline.rings_kept_frac", "fraction"},
    {"nn.bkg_us_per_ring_pass", "us"},
    {"loc.err_p50_deg", "deg"},
    {"loc.fail_frac", "fraction"},
    {"latency_p99_us", "us"},
    // Serve path ledger: the four per-event rows sum to
    // serve.latency_mean_us.
    {"serve.latency_mean_us", "us"},
    {"serve.queue_wait_us.mean", "us"},
    {"serve.forward_us.mean", "us"},
    {"serve.post_forward_us.mean", "us"},
    {"serve.unattributed_us", "us"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.post_forward_us.p50", "us"},
    {"serve.post_forward_us.p99", "us"},
    {"nn.forward_us_per_batch", "us"},
    {"nn.forward_us_per_event", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.worker_busy_frac", "fraction"},
    {"serve.mixed_batch_frac", "fraction"},
    {"serve.alert_delay_us.p50", "us"},
    {"serve.alert_delay_us.p90", "us"},
    {"loc.rings_accepted", "count"},
    {"loc.radius_checks", "count"},
    {"serve.trace_overhead_us", "us"},
    {"prepare_s", "s"},
};

const MetricDef& metric_def(const std::string& name) {
  for (const MetricDef& d : kEndToEnd)
    if (name == d.name) return d;
  for (const MetricDef& d : kPerLayer)
    if (name == d.name) return d;
  throw std::logic_error("unknown metric " + name);
}

/// Collects metric values and output checks, and renders them as text
/// lines, the final JSON line, and the record file.
class Report {
 public:
  void set(const std::string& name, double value, std::uint64_t samples) {
    metric_def(name);  // Throws on a name missing from the catalogue.
    values_[name] = {value, samples};
  }

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }

  void note(const std::string& text) { notes_.push_back(text); }

  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print(bool traced) const {
    for (const auto& [name, v] : values_)
      std::printf("%-28s %.6g %s n=%llu\n", name.c_str(), v.value,
                  metric_def(name).unit,
                  static_cast<unsigned long long>(v.samples));
    for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
    for (const Check& c : checks_)
      std::printf("check %-22s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                  c.detail.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const std::span<const MetricDef> defs =
        traced ? std::span<const MetricDef>(kPerLayer)
               : std::span<const MetricDef>(kEndToEnd);
    const char* sep = "";
    for (const MetricDef& d : defs) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, d.name,
                  value_or_zero(d.name), d.unit);
      sep = ", ";
    }
    std::printf("}}\n");
  }

  /// Machine-readable record with every metric, its sample count, the
  /// checks, and a host / ISA / thread-budget / git fingerprint.
  void write_record(const std::string& path,
                    const std::map<std::string, std::string>& header) const {
    std::ofstream out(path);
    out << std::setprecision(17) << "{\n";
    for (const auto& [key, value] : header)
      out << "  \"" << key << "\": \"" << value << "\",\n";
    out << "  \"correct\": " << (correct() ? "true" : "false") << ",\n"
        << "  \"metrics\": {";
    const char* sep = "\n";
    for (const auto& [name, v] : values_) {
      out << sep << "    \"" << name << "\": {\"value\": " << v.value
          << ", \"unit\": \"" << metric_def(name).unit
          << "\", \"samples\": " << v.samples << "}";
      sep = ",\n";
    }
    out << "\n  },\n  \"checks\": {";
    sep = "\n";
    for (const Check& c : checks_) {
      out << sep << "    \"" << c.name << "\": " << (c.ok ? "true" : "false");
      sep = ",\n";
    }
    out << "\n  }\n}\n";
  }

 private:
  struct Value {
    double value = 0.0;
    std::uint64_t samples = 0;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  double value_or_zero(const char* name) const {
    const auto it = values_.find(name);
    return it != values_.end() && std::isfinite(it->second.value)
               ? it->second.value
               : 0.0;
  }

  std::map<std::string, Value> values_;
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
};

/// Nearest-rank quantile; reorders `v`.  0 for an empty sample.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::lround(q * static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double mean(const std::vector<T>& v) {
  double sum = 0.0;
  for (const T x : v) sum += static_cast<double>(x);
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of `v` without its lowest and highest tenth; reorders `v`.
double trimmed_mean(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// End-to-end timing metrics of a replayed input: sample k timed input
/// k % inputs, and every input ran at least once.  An input's cost is
/// the trimmed mean of its repeats.  The trim drops the repeats that a
/// stall hit.  The mean moves smoothly with the share of the run the
/// shared host spent fast or slow, where a median jumps between the
/// two speeds.  The latency quantiles run over the input costs, and the
/// rate is `units` per mean cost.  Returns the p50.
double report_replayed(const std::vector<double>& sample_us,
                       std::size_t inputs, double units, Report& report) {
  std::vector<std::vector<double>> repeats(inputs);
  for (std::size_t k = 0; k < sample_us.size(); ++k)
    repeats[k % inputs].push_back(sample_us[k]);
  std::vector<double> cost_us;
  for (std::vector<double>& r : repeats) cost_us.push_back(trimmed_mean(r));
  report.set("throughput_per_s", 1e6 * units / mean(cost_us),
             sample_us.size());
  const double p50 = quantile(cost_us, 0.50);
  report.set("latency_p50_us", p50, inputs);
  report.set("latency_p90_us", quantile(cost_us, 0.90), inputs);
  report.set("latency_p99_us", quantile(cost_us, 0.99), inputs);
  return p50;
}

/// Builds the workload's program state `count` times, appends each
/// build's wall time to `seconds`, and returns the last build.
template <typename Build>
auto timed_builds(const Build& build, int count, std::vector<double>& seconds) {
  decltype(build()) state;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    auto built = build();
    seconds.push_back(seconds_between(t0, Clock::now()));
    state = std::move(built);
  }
  return state;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string models = "build-bench/models";
  std::string out;
  std::string git = "unknown";
};

// ---------------------------------------------------------------------
// Burst path (paper Tables I/II).

eval::TrialSetup burst_setup() {
  eval::TrialSetup setup;  // Tables I/II: 1 MeV/cm^2, normal incidence.
  setup.grb.fluence = 1.0;
  setup.grb.polar_deg = 0.0;
  return setup;
}

eval::ModelProviderConfig provider_config(const std::string& dir) {
  eval::ModelProviderConfig config;
  config.cache_dir = dir;
  return config;
}

/// Trains the burst networks into the benchmark's own cache on first
/// use and returns how long that took (read back from a stamp file on
/// later runs).  The model cache tracked in the repo is never read.
double prepare_models(const std::string& dir) {
  const std::filesystem::path stamp = std::filesystem::path(dir) / "prepare_s";
  if (std::ifstream in(stamp); in) {
    std::string text;
    std::getline(in, text);
    return core::parse_double(text, stamp.string());
  }
  const auto t0 = Clock::now();
  { const eval::ModelProvider provider(burst_setup(), provider_config(dir)); }
  const double seconds = seconds_between(t0, Clock::now());
  std::ofstream(stamp) << std::setprecision(17) << seconds << '\n';
  return seconds;
}

/// Everything a burst needs, built in dependency order (the simulator
/// keeps a pointer to the geometry).
struct BurstPipeline {
  BurstPipeline(const eval::TrialSetup& setup, const std::string& models)
      : provider(setup, provider_config(models)),
        geometry(setup.geometry),
        simulator(geometry, setup.material, setup.readout),
        reconstructor(setup.material, setup.reconstruction),
        localizer(setup.ml_localizer) {}

  eval::ModelProvider provider;
  detector::Geometry geometry;
  sim::ExposureSimulator simulator;
  recon::EventReconstructor reconstructor;
  pipeline::MlLocalizer localizer;
};

/// A simulated burst and the random stream MlLocalizer::run draws from:
/// the state Rng(seed) is left in after the simulation, as in
/// eval::TrialRunner::run.  Every pass copies it, so every pass
/// computes the same result.
struct BurstInput {
  sim::Exposure exposure;
  core::Rng rng;
};

struct Burst {
  double total_ms = 0.0;  ///< reconstruct_all + MlLocalizer::run.
  pipeline::StageTimings stages;
  std::size_t rings_in = 0;
  std::size_t rings_kept = 0;
  int iterations = 0;
  bool converged = false;
  bool valid = false;
  double error_deg = 0.0;

  bool same_outcome(const Burst& o) const {
    return valid == o.valid && error_deg == o.error_deg &&
           rings_in == o.rings_in && rings_kept == o.rings_kept &&
           iterations == o.iterations && converged == o.converged;
  }
};

Burst run_one_burst(const BurstPipeline& pipe, const BurstInput& input,
                    pipeline::BackgroundNet& bkg, pipeline::DEtaNet& deta) {
  core::Rng rng = input.rng;
  Burst b;
  const auto t0 = Clock::now();
  const std::vector<recon::ComptonRing> rings =
      pipe.reconstructor.reconstruct_all(input.exposure.events);
  const auto t1 = Clock::now();
  const pipeline::MlLocalizationResult result =
      pipe.localizer.run(rings, &bkg, &deta, rng, &b.stages);
  const auto t2 = Clock::now();
  b.total_ms = us_between(t0, t2) * 1e-3;
  b.stages.reconstruction_ms = us_between(t0, t1) * 1e-3;
  b.rings_in = result.rings_in;
  b.rings_kept = result.rings_kept;
  b.iterations = result.background_iterations;
  b.converged = result.loop_converged;
  b.valid = result.valid;
  if (b.valid)
    b.error_deg = core::rad_to_deg(core::angle_between(
        result.direction, input.exposure.true_source_direction));
  return b;
}

void report_burst_layers(const std::vector<Burst>& bursts, Report& report) {
  const std::uint64_t n = bursts.size();
  double total = 0, recon = 0, setup = 0, bkg = 0, deta = 0, approx = 0;
  double iterations = 0, converged = 0, rings_in = 0, rings_kept = 0;
  double ring_passes = 0;
  for (const Burst& b : bursts) {
    total += b.total_ms;
    recon += b.stages.reconstruction_ms;
    setup += b.stages.setup_ms;
    bkg += b.stages.background_inference_ms;
    deta += b.stages.deta_inference_ms;
    approx += b.stages.approx_refine_ms;
    iterations += b.iterations;
    converged += b.converged ? 1 : 0;
    rings_in += static_cast<double>(b.rings_in);
    rings_kept += static_cast<double>(b.rings_kept);
    ring_passes += static_cast<double>(b.rings_in) * b.iterations;
  }
  const double dn = static_cast<double>(n);
  const double unattributed = total - recon - setup - bkg - deta - approx;
  report.set("pipeline.burst_mean_ms", total / dn, n);
  report.set("recon.reconstruct_ms", recon / dn, n);
  report.set("pipeline.setup_ms", setup / dn, n);
  report.set("pipeline.bkg_nn_ms", bkg / dn, n);
  report.set("pipeline.deta_nn_ms", deta / dn, n);
  report.set("loc.approx_refine_ms", approx / dn, n);
  report.set("pipeline.unattributed_ms", unattributed / dn, n);
  report.set("pipeline.iterations_mean", iterations / dn, n);
  report.set("pipeline.converged_frac", converged / dn, n);
  report.set("pipeline.rings_kept_frac", ratio(rings_kept, rings_in), n);
  report.set("nn.bkg_us_per_ring_pass", ratio(bkg * 1e3, ring_passes),
             static_cast<std::uint64_t>(ring_passes));
  char ledger[200];
  std::snprintf(ledger, sizeof ledger,
                "burst ledger [ms]: recon %.3f + setup %.3f + bkg_nn %.3f + "
                "deta_nn %.3f + approx_refine %.3f + unattributed %.3f = "
                "%.3f mean",
                recon / dn, setup / dn, bkg / dn, deta / dn, approx / dn,
                unattributed / dn, total / dn);
  report.note(ledger);
}

void run_burst(const Options& opt, Report& report) {
  const eval::TrialSetup setup = burst_setup();
  const auto build = [&] {
    return std::make_unique<BurstPipeline>(setup, opt.models);
  };
  std::vector<double> setup_s;
  const auto pipe = timed_builds(build, kSetupRepeats, setup_s);
  pipeline::BackgroundNet& bkg = pipe->provider.background_net();
  pipeline::DEtaNet& deta = pipe->provider.deta_net();
  {
    char detail[96];
    std::snprintf(detail, sizeof detail, "background=%016llx deta=%016llx",
                  static_cast<unsigned long long>(bkg.weight_checksum()),
                  static_cast<unsigned long long>(deta.weight_checksum()));
    report.check("model_checksums",
                 bkg.weight_checksum() == kBackgroundChecksum &&
                     deta.weight_checksum() == kDEtaChecksum,
                 detail);
  }

  // Burst i draws from Rng(base + i), as eval::run_trials(base) does:
  // base 0 for the accuracy set, then (seed + 1) * 2^20, so different
  // seeds share no burst beyond that set.
  const auto burst_seed = [&](std::uint64_t i) {
    return i < kAccuracyBursts ? i : ((opt.seed + 1) << 20) + i;
  };
  std::vector<BurstInput> pool;
  for (std::size_t i = 0; i < kAccuracyBursts + kSeededBursts; ++i) {
    core::Rng rng(burst_seed(i));
    sim::Exposure exposure = pipe->simulator.simulate(
        setup.grb, setup.background, rng, setup.pileup);
    pool.push_back({std::move(exposure), rng});
  }

  // Passes over the pool until --seconds have passed; the first pass
  // always completes, and its outcomes feed the checks.
  std::vector<Burst> samples;
  bool repeatable = true;
  const auto start = Clock::now();
  for (std::size_t k = 0;
       k < pool.size() || seconds_between(start, Clock::now()) < opt.seconds;
       ++k) {
    const std::size_t i = k % pool.size();
    samples.push_back(run_one_burst(*pipe, pool[i], bkg, deta));
    repeatable = repeatable && samples.back().same_outcome(samples[i]);
    if (i + 1 == pool.size()) timed_builds(build, 1, setup_s);
  }

  std::vector<double> sample_us;
  for (const Burst& b : samples) {
    sample_us.push_back(b.total_ms * 1e3);
    report.failed += b.valid ? 0 : 1;
  }
  report.attempted = samples.size();
  report_replayed(sample_us, pool.size(), 1.0, report);
  if (opt.traced) report_burst_layers(samples, report);
  report.check("passes_repeat", repeatable,
               "every pass reproduces the first pass's outcomes");

  // Science guard on the accuracy set: median error plus the
  // catastrophic-failure rate (invalid or > kFailDeg).
  std::vector<double> errors;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kAccuracyBursts; ++i) {
    if (samples[i].valid) errors.push_back(samples[i].error_deg);
    if (!samples[i].valid || samples[i].error_deg > kFailDeg) ++failures;
  }
  const double err_p50 = quantile(errors, 0.5);
  const double fail_frac =
      static_cast<double>(failures) / static_cast<double>(kAccuracyBursts);
  report.set("loc.err_p50_deg", err_p50, errors.size());
  report.set("loc.fail_frac", fail_frac, kAccuracyBursts);
  char detail[128];
  std::snprintf(detail, sizeof detail,
                "err_p50=%.7f deg (pinned %.7f) fail_frac=%.3f (pinned %.3f)",
                err_p50, kRefErrP50Deg, fail_frac, kRefFailFrac);
  report.check("accuracy_guard",
               err_p50 <= kRefErrP50Deg * (1.0 + kErrP50Tolerance) &&
                   fail_frac <= kRefFailFrac + kFailFracTolerance,
               detail);

  // The timed replica must equal the library's own trial on the same
  // random stream, for two bursts of the accuracy set and the first
  // seeded burst.
  const eval::TrialRunner runner(setup);
  eval::PipelineVariant variant;
  variant.background_net = &bkg;
  variant.deta_net = &deta;
  bool same = true;
  for (const std::size_t i :
       {std::size_t{0}, std::size_t{1}, kAccuracyBursts}) {
    core::Rng rng(burst_seed(i));
    const eval::TrialOutcome o = runner.run(variant, rng);
    const Burst& b = samples[i];
    same = same && o.valid == b.valid && o.error_deg == b.error_deg &&
           o.rings_kept == b.rings_kept &&
           o.background_iterations == b.iterations;
  }
  report.check("replica_equals_trial", same,
               "bursts 0, 1 and " + std::to_string(kAccuracyBursts));
  report.set("setup_s", quantile(setup_s, 0.5), setup_s.size());
}

// ---------------------------------------------------------------------
// Serve path (fleet_alert).

// kStreams uniform streams, each with its own localizer, fed in
// closed-loop waves of kWave rings.  A wave is 16 batches, long enough
// that its two thread wake-ups are a small share of its latency.  An
// episode (one router lifetime) replays the kEpisodeRings-ring pool
// once.  Its first radius checks slow about six of its waves up to
// threefold; 128 waves per episode keep those above the 90th
// percentile.
constexpr std::size_t kStreams = 256;
constexpr std::uint32_t kWave = 1024;
constexpr std::uint32_t kEpisodeRings = 1u << 17;
constexpr std::size_t kWavesPerEpisode = kEpisodeRings / kWave;

/// Paper-dimension stand-in networks (INT8 background + FP32 dEta), the
/// same seeds as bench_serve_multistream.
struct ServeModels {
  pipeline::BackgroundNet background =
      serve::synthetic_background_net_int8(0x5EB7E);
  pipeline::DEtaNet deta = serve::synthetic_deta_net(0x5EB7D);
  pipeline::Models models() { return {&background, &deta}; }
};

serve::RouterConfig router_config() {
  serve::RouterConfig rc;
  rc.num_shards = 4;
  rc.num_workers = 1;  // The sink-side scratch below is worker-owned.
  rc.shard_capacity = kQueueCapacity;
  rc.per_stream_cap = kQueueCapacity;
  rc.localize = true;
  rc.localizer_template.localizer.resolution_deg = 2.0;
  rc.localizer_template.alert_radius_deg = 3.0;
  // Synthetic networks serve seeded-noise vetoes and widths: fold every
  // ring with its own analytic width instead.
  rc.localizer_template.feed_background = true;
  rc.localizer_template.use_served_d_eta = false;
  return rc;
}

core::Vec3 alert_source() {
  return core::from_spherical(core::deg_to_rad(35.0), core::deg_to_rad(120.0));
}

struct Event {
  recon::ComptonRing ring;
  double polar_deg = 0.0;
  std::uint32_t stream = 0;
};

/// The seeded input pool every episode replays.  Every stream watches
/// one synthetic burst at alert_source(); a quarter of its rings are
/// background with uniform eta.
std::vector<Event> make_pool(std::uint64_t seed) {
  core::Rng rng(seed);
  const core::Vec3 source = alert_source();
  constexpr double kSourceDEta = 0.05;
  std::vector<Event> pool(kEpisodeRings);
  for (Event& e : pool) {
    e.ring = serve::synthetic_ring(rng);
    e.polar_deg = rng.uniform(0.0, 90.0);
    e.stream = static_cast<std::uint32_t>(
        std::min(static_cast<std::size_t>(rng.uniform() * kStreams),
                 kStreams - 1));
    e.ring.axis = rng.isotropic_direction();
    e.ring.d_eta = kSourceDEta;
    e.ring.eta = rng.uniform() < 0.25
                     ? rng.uniform(-1.0, 1.0)
                     : std::clamp(e.ring.axis.dot(source) +
                                      rng.normal(0.0, kSourceDEta),
                                  -1.0, 1.0);
  }
  return pool;
}

struct Sampled {
  std::uint64_t sequence = 0;
  std::uint8_t is_background = 0;
  double d_eta = 0.0;
  bool degraded = false;
};

struct BatchLog {
  std::size_t size = 0;
  double forward_us = 0.0;
  double busy_us = 0.0;  ///< Forward start to sink end.
};

/// Output-check state, summed over every episode of a run.
struct ServeChecks {
  std::size_t episodes = 0;
  bool conserved = true;
  bool clean = true;  ///< No shed, degrade, fallback or batch error.
  bool alerts_ok = true;
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;
  std::uint64_t fallback = 0;
  std::uint64_t batch_errors = 0;
  std::vector<Sampled> sampled;
  std::size_t fewest_alerts = kStreams;
  double worst_alert_deg = 0.0;
};

/// Measurements of one phase (untraced, or traced).
struct ServeLog {
  std::vector<double> wave_us;  ///< First submit -> last sink, per wave.
  std::uint64_t events = 0;
  std::size_t episodes = 0;
  // Traced only: per-event rows of the serve ledger, and batch timings.
  std::vector<float> latency_us;  ///< Submit -> sink.
  std::vector<float> queue_us;    ///< Submit -> forward start.
  std::vector<float> post_us;     ///< Forward end -> sink.
  std::vector<BatchLog> batches;
  std::uint64_t router_batches = 0;
  std::uint64_t mixed_batches = 0;
  std::vector<double> alert_delay_us;
  std::uint64_t rings_accepted = 0;
  std::uint64_t radius_checks = 0;
};

/// One router lifetime: replays the pool once in waves of kWave rings.
/// Appends to `log` when `measured`, and always to `checks`.
void run_episode(ServeModels& nets, const std::vector<Event>& pool,
                 bool traced, bool measured, ServeLog& log,
                 ServeChecks& checks) {
  const pipeline::Models models = nets.models();
  const serve::RouterConfig rc = router_config();
  std::vector<Clock::time_point> submitted_at(kEpisodeRings);
  std::atomic<std::uint32_t> delivered{0};
  std::atomic<std::uint32_t> target{0};

  // Worker-thread state.  The engine wrapper and the alert callback run
  // on the worker just before the sink call that consumes them, and the
  // producer reads last_sink only after `delivered` shows the wave done.
  Clock::time_point last_sink;
  Clock::time_point forward_start;
  Clock::time_point forward_end;
  struct PendingAlert {
    std::uint32_t stream;
    Clock::time_point at;
  };
  std::vector<PendingAlert> pending;
  std::vector<double> alert_delay_us;
  double worst_alert_deg = 0.0;
  const core::Vec3 source = alert_source();
  const bool ledger = traced && measured;

  serve::StreamRouter router(
      models, rc, [&](std::span<const serve::ServeResult> results) {
        const auto now = Clock::now();
        for (const serve::ServeResult& r : results) {
          const Clock::time_point sub = submitted_at[r.sequence - 1];
          if (ledger) {
            log.latency_us.push_back(static_cast<float>(us_between(sub, now)));
            log.queue_us.push_back(
                static_cast<float>(us_between(sub, forward_start)));
            log.post_us.push_back(
                static_cast<float>(us_between(forward_end, now)));
          }
          if (r.sequence % kCheckEvery == 0)
            checks.sampled.push_back(
                {r.sequence, r.is_background, r.d_eta, r.degraded});
        }
        // The newest ring of the alerting stream in this batch is the
        // one whose fold crossed the threshold.
        for (const PendingAlert& a : pending) {
          std::uint64_t newest = 0;
          for (const serve::ServeResult& r : results)
            if (r.stream_id == a.stream) newest = std::max(newest, r.sequence);
          alert_delay_us.push_back(us_between(submitted_at[newest - 1], a.at));
        }
        pending.clear();
        last_sink = Clock::now();
        if (ledger)
          log.batches.push_back({results.size(),
                                 us_between(forward_start, forward_end),
                                 us_between(forward_start, last_sink)});
        const auto n = static_cast<std::uint32_t>(results.size());
        if (delivered.fetch_add(n) + n >= target.load())
          delivered.notify_one();
      });
  router.set_alert_callback(
      [&](std::uint32_t stream, const serve::AlertInfo& info) {
        pending.push_back({stream, Clock::now()});
        worst_alert_deg = std::max(
            worst_alert_deg,
            core::rad_to_deg(core::angle_between(info.direction, source)));
      });
  if (traced) {
    // Pass-through engine: the same Models::infer_batch call the
    // router's built-in path makes, bracketed by two clock reads.
    router.set_engine([&](std::span<const recon::ComptonRing> rings,
                          std::span<const double> polar, bool degrade) {
      forward_start = Clock::now();
      pipeline::Models::BatchInference fused = models.infer_batch(
          rings, polar, rc.d_eta_floor, rc.d_eta_cap, !degrade);
      serve::BatchOutputs out;
      out.is_background = std::move(fused.is_background);
      out.d_eta = std::move(fused.d_eta);
      out.degraded = degrade && models.deta != nullptr;
      forward_end = Clock::now();
      return out;
    });
  }

  router.start();
  bool in_order = true;
  for (std::uint32_t next = 0; next < kEpisodeRings;) {
    const std::uint32_t end = next + kWave;
    target.store(end);
    const auto t0 = Clock::now();
    for (; next < end; ++next) {
      const Event& e = pool[next];
      submitted_at[next] = Clock::now();
      // One producer: sequence order is submit order, so the sink can
      // recover each event's submit time from its sequence.
      in_order =
          router.submit(e.stream, e.ring, e.polar_deg) == next + 1 && in_order;
    }
    // Shed and rejected rings never reach the sink, and both happen
    // inside submit().  Lowering the target and then re-reading
    // `delivered` (all sequentially consistent) cannot miss the sink's
    // last notify, so a lossy router fails the conservation check
    // instead of hanging the run.
    const serve::StreamRouter::Stats sofar = router.stats();
    const auto expect =
        end - static_cast<std::uint32_t>(sofar.shed + sofar.rejected);
    if (expect != end) target.store(expect);
    for (std::uint32_t done = delivered.load(); done < expect;
         done = delivered.load())
      delivered.wait(done);
    if (measured) log.wave_us.push_back(us_between(t0, last_sink));
  }
  router.stop();

  const serve::StreamRouter::Stats s = router.stats();
  ++checks.episodes;
  checks.conserved = checks.conserved && in_order &&
                     s.submitted == kEpisodeRings &&
                     s.submitted == s.processed + s.shed &&
                     delivered.load() == s.processed && s.rejected == 0;
  checks.clean = checks.clean && s.shed == 0 && s.degraded == 0 &&
                 s.fallback == 0 && s.batch_errors == 0;
  checks.submitted += s.submitted;
  checks.delivered += delivered.load();
  checks.shed += s.shed;
  checks.rejected += s.rejected;
  checks.degraded += s.degraded;
  checks.fallback += s.fallback;
  checks.batch_errors += s.batch_errors;

  const std::vector<serve::StreamRouter::StreamStats> streams =
      router.stream_stats();
  std::size_t fired = 0;
  for (const auto& row : streams) fired += row.alert_fired ? 1 : 0;
  checks.alerts_ok = checks.alerts_ok && fired == kStreams &&
                     alert_delay_us.size() == kStreams &&
                     worst_alert_deg <= kAlertToleranceDeg;
  checks.fewest_alerts = std::min(checks.fewest_alerts, fired);
  checks.worst_alert_deg = std::max(checks.worst_alert_deg, worst_alert_deg);
  if (!measured) return;
  ++log.episodes;
  log.events += kEpisodeRings;
  log.router_batches += s.batches;
  log.mixed_batches += s.mixed_batches;
  log.alert_delay_us.insert(log.alert_delay_us.end(), alert_delay_us.begin(),
                            alert_delay_us.end());
  for (const auto& row : streams) {
    if (const auto status = router.localizer_status(row.stream_id)) {
      log.rings_accepted += status->rings_accepted;
      log.radius_checks += status->radius_checks;
    }
  }
}

void report_checks(ServeModels& nets, const std::vector<Event>& pool,
                   const ServeChecks& c, Report& report) {
  report.attempted = c.submitted;
  report.failed = c.shed + c.rejected + c.fallback;
  char detail[200];
  std::snprintf(detail, sizeof detail,
                "episodes=%zu submitted=%llu delivered=%llu shed=%llu "
                "rejected=%llu",
                c.episodes, static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.delivered),
                static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.rejected));
  report.check("conservation", c.conserved, detail);
  std::snprintf(detail, sizeof detail,
                "shed=%llu degraded=%llu fallback=%llu batch_errors=%llu",
                static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.degraded),
                static_cast<unsigned long long>(c.fallback),
                static_cast<unsigned long long>(c.batch_errors));
  report.check("no_fallback", c.clean, detail);

  // Each sampled result, whatever batch served it (batches mix
  // streams), must be bit-equal to a direct single-ring forward at the
  // same polar guess.
  const pipeline::Models models = nets.models();
  const serve::RouterConfig rc = router_config();
  bool equal = !c.sampled.empty();
  for (const Sampled& x : c.sampled) {
    const Event& e = pool[x.sequence - 1];
    const auto ref =
        models.infer_batch({&e.ring, 1}, {&e.polar_deg, 1}, rc.d_eta_floor,
                           rc.d_eta_cap, !x.degraded);
    equal = equal && ref.is_background[0] == x.is_background &&
            std::memcmp(&ref.d_eta[0], &x.d_eta, sizeof(double)) == 0;
  }
  report.check("bit_equal_sample", equal,
               std::to_string(c.sampled.size()) + " results");

  std::snprintf(detail, sizeof detail,
                "every episode: fired>=%zu/%zu worst=%.2f deg",
                c.fewest_alerts, kStreams, c.worst_alert_deg);
  report.check("alerts", c.alerts_ok, detail);
}

/// End-to-end serve metrics of a phase; returns the wave latency p50.
/// Every episode replays the same pool, so wave w of one episode and
/// wave w of the next serve the same rings.
double report_phase_e2e(const ServeLog& log, Report& report) {
  return report_replayed(log.wave_us, kWavesPerEpisode, kWave, report);
}

void report_phase_layers(const ServeLog& log, Report& report) {
  std::vector<float> latency = log.latency_us;
  std::vector<float> queue = log.queue_us;
  std::vector<float> post = log.post_us;
  const std::uint64_t n = latency.size();

  double forward_events = 0, forward_sum = 0, forward_weighted = 0, busy = 0;
  for (const BatchLog& b : log.batches) {
    forward_events += static_cast<double>(b.size);
    forward_sum += b.forward_us;
    forward_weighted += b.forward_us * static_cast<double>(b.size);
    busy += b.busy_us;
  }
  const auto batches = static_cast<std::uint64_t>(log.batches.size());
  const double forward_mean = ratio(forward_weighted, forward_events);
  double wave_total = 0.0;
  for (const double w : log.wave_us) wave_total += w;

  const double latency_mean = mean(latency);
  report.set("serve.latency_mean_us", latency_mean, n);
  report.set("serve.queue_wait_us.mean", mean(queue), n);
  report.set("serve.forward_us.mean", forward_mean,
             static_cast<std::uint64_t>(forward_events));
  report.set("serve.post_forward_us.mean", mean(post), n);
  const double unattributed =
      latency_mean - mean(queue) - forward_mean - mean(post);
  report.set("serve.unattributed_us", unattributed, n);
  char ledger[200];
  std::snprintf(ledger, sizeof ledger,
                "serve ledger [us/event]: queue_wait %.3f + forward %.3f + "
                "post_forward %.3f + unattributed %.3f = %.3f mean",
                mean(queue), forward_mean, mean(post), unattributed,
                latency_mean);
  report.note(ledger);
  report.set("serve.queue_wait_us.p50", quantile(queue, 0.50), n);
  report.set("serve.queue_wait_us.p99", quantile(queue, 0.99), n);
  report.set("serve.post_forward_us.p50", quantile(post, 0.50), n);
  report.set("serve.post_forward_us.p99", quantile(post, 0.99), n);
  report.set("nn.forward_us_per_batch",
             ratio(forward_sum, static_cast<double>(batches)), batches);
  report.set("nn.forward_us_per_event", ratio(forward_sum, forward_events),
             static_cast<std::uint64_t>(forward_events));
  report.set("serve.batch_size_mean",
             ratio(forward_events, static_cast<double>(batches)), batches);
  report.set("serve.worker_busy_frac", ratio(busy, wave_total), batches);
  report.set("serve.mixed_batch_frac",
             ratio(static_cast<double>(log.mixed_batches),
                   static_cast<double>(log.router_batches)),
             log.router_batches);
  {
    std::vector<double> delays = log.alert_delay_us;
    report.set("serve.alert_delay_us.p50", quantile(delays, 0.50),
               delays.size());
    report.set("serve.alert_delay_us.p90", quantile(delays, 0.90),
               delays.size());
    // Per episode: every episode replays the same pool.
    const auto episodes = static_cast<double>(log.episodes);
    report.set("loc.rings_accepted",
               static_cast<double>(log.rings_accepted) / episodes,
               log.episodes);
    report.set("loc.radius_checks",
               static_cast<double>(log.radius_checks) / episodes,
               log.episodes);
  }
}

void run_fleet_alert(const Options& opt, Report& report) {
  const serve::RouterConfig rc = router_config();
  const auto build = [&] {
    auto built = std::make_unique<ServeModels>();
    serve::StreamRouter router(built->models(), rc,
                               [](std::span<const serve::ServeResult>) {});
    router.start();
    router.stop();
    return built;
  };
  std::vector<double> setup_s;
  const auto nets = timed_builds(build, kSetupRepeats, setup_s);
  const std::vector<Event> pool = make_pool(opt.seed);
  ServeChecks checks;

  // Episodes until `seconds` have passed; each is followed by one timed
  // set-up build.
  const auto phase = [&](double seconds, bool traced, ServeLog& log) {
    const auto start = Clock::now();
    do {
      run_episode(*nets, pool, traced, true, log, checks);
      timed_builds(build, 1, setup_s);
    } while (seconds_between(start, Clock::now()) < seconds);
  };
  ServeLog warmup;
  run_episode(*nets, pool, false, false, warmup, checks);
  ServeLog plain;
  if (!opt.traced) {
    phase(opt.seconds, false, plain);
    report_phase_e2e(plain, report);
  } else {
    // An untraced half then a traced half, so the tracing cost on the
    // median wave latency is measured rather than assumed.
    phase(opt.seconds / 2, false, plain);
    Report scratch;
    const double plain_p50 = report_phase_e2e(plain, scratch);
    ServeLog traced;
    phase(opt.seconds / 2, true, traced);
    const double traced_p50 = report_phase_e2e(traced, report);
    report_phase_layers(traced, report);
    report.set("serve.trace_overhead_us", traced_p50 - plain_p50, 2);
  }
  report_checks(*nets, pool, checks, report);
  report.set("setup_s", quantile(setup_s, 0.5), setup_s.size());
}

// ---------------------------------------------------------------------

Options parse_options(int argc, char** argv) {
  const core::CliArgs args(argc, argv, 1);
  Options opt;
  opt.workload = args.text("workload", "");
  const double seed = args.number("seed", 1.0);
  if (seed < 0.0 || seed != std::floor(seed) || seed >= 1e12)
    throw core::CliError("--seed must be an integer in [0, 1e12)");
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.seconds = args.positive_number("seconds", opt.seconds);
  const double trace = args.number("trace", 0.0);
  if (trace != 0.0 && trace != 1.0)
    throw core::CliError("--trace must be 0 or 1");
  opt.traced = trace == 1.0 || args.has("traced");
  opt.models = args.text("models", opt.models);
  opt.out = args.text("out", opt.out);
  opt.git = args.text("git", opt.git);
  return opt;
}

std::map<std::string, std::string> fingerprint(const Options& opt) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", std::to_string(opt.seconds)},
      {"traced", opt.traced ? "1" : "0"},
      {"host", host},
      {"cpu_features", core::cpu_features_summary()},
      {"kernel_isa", nn::kernels::kernel_set(nn::kernels::active_isa()).name},
      {"max_threads", std::to_string(core::max_threads())},
      {"omp_num_threads", omp != nullptr ? omp : "unset"},
      {"git", opt.git},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
    if (opt.workload != "burst_table12" && opt.workload != "fleet_alert")
      throw core::CliError("unknown --workload '" + opt.workload + "'");
  } catch (const core::CliError& e) {
    std::cerr << "adapt_e2e: " << e.what()
              << "\nworkloads: burst_table12 fleet_alert\n";
    return 2;
  }

  Report report;
  report.set("prepare_s", prepare_models(opt.models), 1);
  if (opt.workload == "fleet_alert")
    run_fleet_alert(opt, report);
  else
    run_burst(opt, report);
  if (!opt.out.empty()) report.write_record(opt.out, fingerprint(opt));
  report.print(opt.traced);
  return report.correct() ? 0 : 1;
}
