/// \file adaptctl.cpp
/// Command-line driver for the adaptml library: simulate windows, dump
/// rings, localize bursts, measure containment, train models, and
/// query the FPGA model — the operations a calibration or quick-look
/// workflow scripts against.
///
///   adaptctl simulate   [--fluence F] [--polar P] [--seed S] [--out rings.csv]
///   adaptctl localize   [--fluence F] [--polar P] [--seed S] [--ml] [--models DIR]
///   adaptctl containment [--fluence F] [--polar P] [--trials N] [--meta M] [--ml]
///   adaptctl train      [--rings N] [--epochs E] [--models DIR]
///   adaptctl fpga       [--bits B]
///   adaptctl trigger    [--fluence F] [--polar P] [--seed S]
///   adaptctl skymap     [--fluence F] [--polar P] [--seed S] [--out map.csv]
///   adaptctl campaign   --matrix [--seed S] [--report-dir DIR] [--row R]
///
/// Every command additionally accepts `--metrics json|csv`: pipeline
/// telemetry (per-stage counters and timing histograms) is collected
/// during the run and written to stdout after the command's own
/// output.  See README.md "Telemetry" for the metric names.
///
/// `--max-reject-frac F` (any command) arms the record-rejection gate:
/// when more than fraction F of ring records were rejected by the
/// untrusted-input loaders during the run, adaptctl exits 3 instead of
/// 0 — a dataset that was 100% garbage is a failure, not a quiet
/// no-op (see eval/reject_gate.hpp).
///
/// `campaign` runs the seeded fault x scenario matrix (src/fault):
/// every scenario ring stream through a live supervised serve pipeline
/// under each fault row.  It prints the per-cell reports and fault
/// ledgers, and exits nonzero unless every injected fault was detected
/// or tolerated and every cell ended healthy.
///
/// Flag values are parsed strictly (core::CliArgs): `--fluence banana`
/// or `--fluence -1` is a usage error, never a silent 0.0.  Negative
/// values (`--polar -30`) parse fine.
///
/// Exit code 0 on success; 1 on command failure; 2 on usage errors;
/// 3 when the --max-reject-frac gate breaches.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/cpu_features.hpp"
#include "core/table.hpp"
#include "core/telemetry.hpp"
#include "nn/kernels/kernels.hpp"
#include "eval/reject_gate.hpp"
#include "fault/matrix.hpp"
#include "scenario/config.hpp"
#include "loc/kernels/band_kernels.hpp"
#include "loc/localizer.hpp"
#include "loc/skymap.hpp"
#include "trigger/rate_trigger.hpp"
#include "core/units.hpp"
#include "eval/containment.hpp"
#include "eval/model_provider.hpp"
#include "fpga/hls_model.hpp"
#include "pipeline/features.hpp"
#include "serve/flood.hpp"
#include "serve/synthetic_models.hpp"

using namespace adapt;

namespace {

using core::CliArgs;

std::uint64_t seed_from(const CliArgs& args, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      args.number("seed", static_cast<double>(fallback)));
}

eval::TrialSetup setup_from(const CliArgs& args) {
  eval::TrialSetup setup;
  setup.grb.fluence = args.positive_number("fluence", 1.0);
  setup.grb.polar_deg = args.number("polar", 0.0);
  setup.grb.azimuth_deg = args.number("azimuth", 0.0);
  return setup;
}

int cmd_simulate(const CliArgs& args) {
  const eval::TrialSetup setup = setup_from(args);
  const eval::TrialRunner runner(setup);
  core::Rng rng(seed_from(args, 1));
  core::Vec3 truth;
  const auto rings = runner.reconstruct_window(rng, &truth);

  core::TextTable table({"axis_x", "axis_y", "axis_z", "eta", "d_eta",
                         "e_total", "n_hits", "origin", "true_eta"});
  for (const auto& r : rings) {
    table.add_row({core::TextTable::num(r.axis.x, 6),
                   core::TextTable::num(r.axis.y, 6),
                   core::TextTable::num(r.axis.z, 6),
                   core::TextTable::num(r.eta, 6),
                   core::TextTable::num(r.d_eta, 6),
                   core::TextTable::num(r.e_total, 6),
                   core::TextTable::integer(r.n_hits),
                   r.origin == detector::Origin::kGrb ? "grb" : "background",
                   core::TextTable::num(r.cosine_to(truth), 6)});
  }
  const std::string out = args.text("out", "");
  if (!out.empty()) {
    if (!table.write_csv(out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %zu rings to %s (source polar %.1f deg)\n",
                table.rows(), out.c_str(), setup.grb.polar_deg);
  } else {
    table.print(std::cout, "Reconstructed Compton rings");
  }
  return 0;
}

int cmd_localize(const CliArgs& args) {
  const eval::TrialSetup setup = setup_from(args);
  const eval::TrialRunner runner(setup);
  const std::uint64_t seed = seed_from(args, 1);
  core::Rng rng(seed);

  eval::PipelineVariant variant;
  std::unique_ptr<eval::ModelProvider> provider;
  if (args.has("ml")) {
    eval::ModelProviderConfig cfg;
    cfg.cache_dir = args.text("models", "adaptml_models");
    provider = std::make_unique<eval::ModelProvider>(eval::TrialSetup{}, cfg);
    variant.background_net = &provider->background_net();
    variant.deta_net = &provider->deta_net();
  }
  const eval::TrialOutcome o = runner.run(variant, rng);
  if (!o.valid) {
    std::printf("localization failed (rings: %zu)\n", o.rings_total);
    return 1;
  }
  std::printf("burst %.2f MeV/cm^2 at polar %.1f deg: error %.3f deg "
              "(%zu rings: %zu grb + %zu bkg; kept %zu; %.1f ms)\n",
              setup.grb.fluence, setup.grb.polar_deg, o.error_deg,
              o.rings_total, o.rings_grb, o.rings_background, o.rings_kept,
              o.timings.total_ms);

  // Posterior cross-check on the same window (same seed reproduces the
  // exact ring set): the sky map's peak, polished by the robust
  // refinement.  When the fast localizer and the posterior disagree
  // wildly, the burst geometry — not the optimizer — is the suspect.
  // --no-grid skips it.
  if (!args.has("no-grid")) {
    core::Rng check_rng(seed);
    core::Vec3 truth;
    const auto rings = runner.reconstruct_window(check_rng, &truth);
    const loc::LocalizationResult polished = loc::Localizer{}.refine(
        rings, loc::SkyMap::compute(rings).peak());
    if (polished.valid) {
      std::printf("posterior cross-check: error %.3f deg (%zu rings)\n",
                  core::rad_to_deg(
                      core::angle_between(polished.direction, truth)),
                  polished.rings_used);
    }
  }
  return 0;
}

int cmd_containment(const CliArgs& args) {
  const eval::TrialSetup setup = setup_from(args);
  const eval::TrialRunner runner(setup);

  eval::ContainmentConfig cc;
  cc.trials = static_cast<std::size_t>(args.count("trials", 40));
  cc.meta_trials = static_cast<std::size_t>(args.count("meta", 3));
  cc.seed = seed_from(args, 0x5eed);

  eval::PipelineVariant variant;
  std::unique_ptr<eval::ModelProvider> provider;
  if (args.has("ml")) {
    eval::ModelProviderConfig cfg;
    cfg.cache_dir = args.text("models", "adaptml_models");
    provider = std::make_unique<eval::ModelProvider>(eval::TrialSetup{}, cfg);
    variant.background_net = &provider->background_net();
    variant.deta_net = &provider->deta_net();
  }
  const auto summary = eval::measure_containment(runner, variant, cc);
  std::printf("fluence %.2f polar %.1f (%zu x %zu trials, %s):\n",
              setup.grb.fluence, setup.grb.polar_deg, cc.trials,
              cc.meta_trials, args.has("ml") ? "ML" : "no ML");
  std::printf("  68%%: %.2f +- %.2f deg    95%%: %.2f +- %.2f deg\n",
              summary.c68.mean, summary.c68.stddev, summary.c95.mean,
              summary.c95.stddev);
  return 0;
}

int cmd_train(const CliArgs& args) {
  eval::ModelProviderConfig cfg;
  cfg.cache_dir = args.text("models", "adaptml_models");
  cfg.dataset.rings_per_angle = static_cast<std::size_t>(
      args.count("rings", cfg.dataset.rings_per_angle));
  cfg.max_epochs =
      static_cast<std::size_t>(args.count("epochs", cfg.max_epochs));
  cfg.verbose = args.has("verbose");
  eval::ModelProvider provider(eval::TrialSetup{}, cfg);
  std::printf("models ready in %s (bkg accuracy %.3f, deta MSE %.3f — "
              "zeros mean loaded from cache)\n",
              cfg.cache_dir.c_str(), provider.background_test_accuracy(),
              provider.deta_test_mse());
  return 0;
}

int cmd_fpga(const CliArgs& args) {
  const int bits = static_cast<int>(args.count("bits", 8));
  const std::vector<fpga::KernelLayerSpec> layers = {
      {13, 256, true}, {256, 128, true}, {128, 64, true}, {64, 1, false}};
  fpga::KernelReport report;
  if (bits == 32) {
    report = fpga::synthesize(layers, fpga::DataType::kFp32);
  } else {
    const auto model = fpga::DataTypeModel::narrow_int(bits);
    report = fpga::synthesize(layers, fpga::DataType::kInt8, {}, &model);
  }
  std::printf("background-net kernel at %d-bit weights (10 ns clock):\n",
              bits);
  std::printf("  II %zu cycles, latency %zu cycles, %zu BRAM, %zu DSP, "
              "%zu FF, %zu LUT\n",
              report.ii_cycles, report.latency_cycles, report.bram,
              report.dsp, report.ff, report.lut);
  std::printf("  597-ring batch: %.2f ms (%.0f rings/s sustained)\n",
              report.batch_latency_ms(597), report.throughput_per_second());
  return 0;
}

int cmd_trigger(const CliArgs& args) {
  const eval::TrialSetup setup = setup_from(args);
  const detector::Geometry geometry(setup.geometry);
  const sim::ExposureSimulator simulator(geometry, setup.material,
                                         setup.readout);
  core::Rng rng(seed_from(args, 1));

  const auto quiet =
      simulator.simulate_background_only(setup.background, rng);
  trigger::TriggerConfig cfg;
  cfg.background_rate_hz =
      trigger::RateTrigger::estimate_background_rate(quiet.events, 1.0);
  const trigger::RateTrigger rate_trigger(cfg);

  const auto burst =
      simulator.simulate(setup.grb, setup.background, rng);
  const auto result = rate_trigger.scan(burst.events, 1.0);
  std::printf("background rate: %.0f events/s\n", cfg.background_rate_hz);
  if (result.triggered) {
    std::printf("TRIGGER %.1f sigma in [%.3f, %.3f] s (%zu events, %.0f "
                "expected)\n",
                result.significance_sigma, result.t_start, result.t_end,
                result.counts, result.expected);
  } else {
    std::printf("no trigger (best %.1f sigma)\n",
                result.significance_sigma);
  }
  return result.triggered ? 0 : 1;
}

int cmd_skymap(const CliArgs& args) {
  const eval::TrialSetup setup = setup_from(args);
  const eval::TrialRunner runner(setup);
  core::Rng rng(seed_from(args, 1));
  core::Vec3 truth;
  const auto rings = runner.reconstruct_window(rng, &truth);
  const loc::SkyMap map = loc::SkyMap::compute(rings);
  const std::string out = args.text("out", "skymap.csv");
  if (!map.write_csv(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  const core::Vec3 peak = map.peak();
  std::printf("sky map over %zu pixels -> %s\n", map.n_pixels(),
              out.c_str());
  std::printf("peak: polar %.2f deg azimuth %.2f deg (true error %.2f "
              "deg); 90%% radius %.2f deg\n",
              core::rad_to_deg(core::polar_of(peak)),
              core::rad_to_deg(core::azimuth_of(peak)),
              core::rad_to_deg(core::angle_between(peak, truth)),
              map.credible_radius_deg(0.9));
  return 0;
}

int cmd_flood(const CliArgs& args) {
  const serve::FloodConfig cfg = serve::flood_config_from_args(args);

  auto background = serve::synthetic_background_net_int8(cfg.seed ^ 0xB6);
  auto deta = serve::synthetic_deta_net(cfg.seed ^ 0xDE);
  const pipeline::Models models{&background, &deta};

  const serve::FloodReport report = serve::measure_flood(models, cfg);

  std::printf("flood: %zu streams (skew %.2f), %zu events, %zu shards, "
              "%zu workers, %zu producer(s)\n",
              cfg.streams, cfg.skew, cfg.events, cfg.shards, cfg.workers,
              cfg.producers);
  std::printf("aggregate: %.1f kevents/s, p50 %.3f ms, p99 %.3f ms, "
              "%llu batches (%llu mixed), shed %llu (%.2f%%), degraded "
              "%llu, fairness %.4f\n",
              report.events_per_s / 1e3, report.p50_latency_ms,
              report.p99_latency_ms,
              static_cast<unsigned long long>(report.batches),
              static_cast<unsigned long long>(report.mixed_batches),
              static_cast<unsigned long long>(report.shed),
              report.submitted > 0
                  ? 100.0 * static_cast<double>(report.shed) /
                        static_cast<double>(report.submitted)
                  : 0.0,
              static_cast<unsigned long long>(report.degraded),
              report.fairness);
  if (cfg.alert_deg > 0.0) {
    std::printf("early alerts: %zu of %zu streams crossed %.2f deg\n",
                report.alerts_fired, cfg.streams, cfg.alert_deg);
  }

  // Per-stream table: all streams when small, the hottest head plus
  // the coldest tail row otherwise (the interesting fairness story is
  // hot-vs-cold, not 100 near-identical middle rows).  With alerting
  // on, each row also says how far its localizer got.
  const bool alerting = cfg.alert_deg > 0.0;
  std::vector<serve::StreamFloodReport> by_load = report.streams;
  std::sort(by_load.begin(), by_load.end(),
            [](const auto& a, const auto& b) {
              return a.submitted > b.submitted;
            });
  std::vector<std::string> header{"stream",   "submitted", "processed",
                                  "shed",     "p50 [ms]",  "p99 [ms]"};
  if (alerting) {
    header.insert(header.end(), {"loc rings", "vetoed", "alert",
                                 "at ring", "radius [deg]", "alert [ms]"});
  }
  core::TextTable table(header);
  const auto add_row = [&](const std::string& label,
                           const serve::StreamFloodReport& s) {
    std::vector<std::string> row{
        label, std::to_string(s.submitted), std::to_string(s.processed),
        std::to_string(s.shed), core::TextTable::num(s.p50_latency_ms, 3),
        core::TextTable::num(s.p99_latency_ms, 3)};
    if (alerting) {
      row.insert(row.end(), {std::to_string(s.loc_rings),
                             std::to_string(s.loc_skipped)});
      if (s.alert_fired) {
        row.insert(row.end(), {"yes", std::to_string(s.alert_rings),
                               core::TextTable::num(s.alert_radius_deg, 2),
                               core::TextTable::num(s.alert_ms, 1)});
      } else {
        row.insert(row.end(), {"-", "-", "-", "-"});
      }
    }
    table.add_row(row);
  };
  const std::size_t shown = std::min<std::size_t>(by_load.size(), 10);
  for (std::size_t i = 0; i < shown; ++i)
    add_row(std::to_string(by_load[i].stream_id), by_load[i]);
  if (by_load.size() > shown) {
    add_row("... " + std::to_string(by_load.back().stream_id) + " (coldest)",
            by_load.back());
  }
  table.print(std::cout, "Per-stream (hottest first)");
  return 0;
}

int cmd_cpu_features(const CliArgs&) {
  namespace nk = nn::kernels;
  // Enable telemetry before the first kernel dispatch so the
  // nn.kernel.dispatch.* marker lands in the counters below.
  core::telemetry::set_enabled(true);

  std::printf("detected: %s\n", core::cpu_features_summary().c_str());

  const auto yes_no = [](bool b) { return b ? "yes" : "no"; };
  core::TextTable variants({"variant", "nn compiled", "nn supported",
                            "fold compiled", "fold supported"});
  for (int i = 0; i < nk::kIsaCount; ++i) {
    const auto isa = static_cast<nk::Isa>(i);
    variants.add_row({core::isa_name(isa), yes_no(nk::compiled(isa)),
                      yes_no(nk::supported(isa)),
                      yes_no(loc::band_kernels_compiled(isa)),
                      yes_no(loc::band_kernels_supported(isa))});
  }
  variants.print(std::cout);

  // The nn kernels and the localizer's band fold dispatch by one rule
  // (core::resolve_isa) but need different instructions for AVX-512,
  // so each prints its own line.
  const nk::KernelSet& active = nk::active();
  const loc::BandKernels& fold = loc::active_band_kernels();
  const char* override_env = std::getenv("ADAPT_SIMD");
  const std::string why =
      override_env != nullptr && override_env[0] != '\0'
          ? std::string(" (ADAPT_SIMD=") + override_env + ")"
          : std::string();
  std::printf("dispatch: %s%s\n", active.name, why.c_str());
  std::printf("fold dispatch: %s%s\n", fold.name, why.c_str());

  // Run one synthetic INT8 forward (paper network dimensions) plus a
  // small float GEMM so the per-layer table and the nn.kernel.*
  // counters reflect kernels that actually executed, not just the
  // dispatch decision.
  auto background = serve::synthetic_background_net_int8(1);
  const quant::QuantizedMlp* engine = background.int8_model();
  nn::Tensor x(4, engine->layers().front().in_features, 0.25f);
  (void)engine->forward(x);
  nn::Tensor a(3, 8, 0.5f), b(5, 8, 0.25f), c;
  nn::matmul_abt(a, b, c);

  core::TextTable layers_table({"layer", "in", "out", "kernels"});
  const auto& layers = engine->layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const bool last = i + 1 == layers.size();
    layers_table.add_row(
        {"int8 " + std::to_string(i), std::to_string(layers[i].in_features),
         std::to_string(layers[i].out_features),
         std::string("u8i8_gemm.") + active.name +
             (last ? " + scalar f32 epilogue"
                   : std::string(" + u8_requant.") + active.name)});
  }
  layers_table.add_row({"fp32 gemm", "-", "-",
                        std::string("f32_gemm.") + active.name});
  layers_table.print(std::cout, "Per-layer kernel dispatch");

  std::printf("nn.kernel.* and loc.kernel.* counters:\n");
  const core::telemetry::Snapshot snap = core::telemetry::snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("nn.kernel.", 0) == 0 ||
        name.rfind("loc.kernel.", 0) == 0) {
      std::printf("  %s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  return 0;
}

int cmd_campaign(const CliArgs& args) {
  namespace fs = std::filesystem;

  fault::MatrixSpec spec;
  spec.seed = seed_from(args, 2026);
  spec.only_row = args.text("row", "");
  spec.scratch_dir = args.text("scratch", "");
  if (!spec.only_row.empty()) {
    bool known = false;
    for (std::size_t r = 0; r < fault::kMatrixRowCount; ++r)
      if (spec.only_row == fault::to_string(static_cast<fault::MatrixRow>(r)))
        known = true;
    if (!known)
      throw core::CliError(
          "--row must be one of none|events|forward|seu|model_bytes, got '" +
          spec.only_row + "'");
  }

  // Scenario configs: one file via --config, or every *.scn in
  // --config-dir (sorted by filename for a stable cell order).
  if (args.has("config")) {
    spec.scenarios.push_back(
        scenario::load_scenario_file(args.text("config", "")));
  } else {
    const std::string dir =
        args.text("config-dir", "tests/scenario/configs");
    std::vector<fs::path> paths;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec))
      if (entry.path().extension() == ".scn") paths.push_back(entry.path());
    if (ec)
      throw core::CliError("cannot read scenario config dir '" + dir + "'");
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths)
      spec.scenarios.push_back(scenario::load_scenario_file(path.string()));
    if (spec.scenarios.empty())
      throw core::CliError("no *.scn scenario configs in '" + dir + "'");
  }

  const fault::MatrixResult result = fault::run_matrix(spec);
  std::fputs(result.report.c_str(), stdout);

  if (args.has("report-dir")) {
    const fs::path report_dir = args.text("report-dir", "");
    std::error_code ec;
    fs::create_directories(report_dir, ec);
    if (ec)
      throw core::CliError("cannot create report dir '" +
                           report_dir.string() + "'");
    const auto write = [](const fs::path& path, const std::string& text) {
      std::ofstream out(path, std::ios::trunc);
      out << text;
      if (!out)
        throw core::CliError("cannot write report '" + path.string() + "'");
    };
    for (const auto& cell : result.cells)
      write(report_dir / (cell.scenario + "__" +
                          std::string(fault::to_string(cell.row)) + ".txt"),
            cell.report);
    write(report_dir / "matrix.txt", result.report);
  }

  if (!result.ok) {
    std::fprintf(stderr, "campaign matrix FAILED\n");
    return 1;
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: adaptctl <simulate|localize|containment|train|fpga|...> "
      "[--key value ...] [--metrics json|csv]\n"
      "  simulate    --fluence F --polar P --seed S [--out rings.csv]\n"
      "  localize    --fluence F --polar P --seed S [--ml] [--models DIR]"
      " [--no-grid]\n"
      "  containment --fluence F --polar P --trials N --meta M [--ml]\n"
      "  train       --rings N --epochs E [--models DIR] [--verbose]\n"
      "  fpga        --bits B   (2-8, or 32 for FP32)\n"
      "  trigger     --fluence F --polar P --seed S\n"
      "  skymap      --fluence F --polar P --seed S [--out map.csv]\n"
      "  flood       --streams K --events N --skew Z [--shards S"
      " --workers W]\n"
      "              [--shard-cap C --stream-cap P --quantum Q --batch B"
      " --deadline-us D]\n"
      "              [--producers P] [--watermark W] [--no-degrade]"
      " [--seed S]\n"
      "              [--alert-deg X [--alert-content C]"
      " [--background-fraction F]\n"
      "               [--loc-resolution R]]\n"
      "              (load generator: Zipf(Z)-skewed K-stream flood"
      " through the sharded\n"
      "              StreamRouter; reports per-stream p50/p99, shed rate,"
      " and the Jain\n"
      "              fairness index.  --streams 1 --shards 1 --workers 1"
      " is the single-\n"
      "              stream service.  --alert-deg: the events become one"
      " synthetic burst,\n"
      "              each stream localizes incrementally and reports when"
      " its credible\n"
      "              radius first shrinks below X deg)\n"
      "  campaign    --matrix [--seed S] [--config-dir DIR]"
      " [--report-dir DIR] [--row R]\n"
      "              | --config FILE [--seed S] [--row R]\n"
      "              (fault-class x scenario matrix: replay each *.scn"
      " hostile-sky\n"
      "              scenario through the serve path under every fault"
      " row; prints\n"
      "              per-cell ScenarioReports and enforces the ledger"
      " invariant)\n"
      "  cpu-features  report detected ISA, compiled/supported kernel\n"
      "              variants, the nn kernels' and the band fold's\n"
      "              dispatch, and per-layer dispatch (ADAPT_SIMD="
      "scalar|avx2|avx512 overrides)\n"
      "  --metrics json|csv  dump pipeline telemetry to stdout after "
      "the command\n"
      "  --max-reject-frac F exit 3 when more than fraction F of ring "
      "records were rejected\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const CliArgs args(argc, argv, 2);

    // Telemetry: validate the requested format BEFORE doing any work,
    // enable collection for the run, dump after the command.
    std::string metrics_format;
    if (args.has("metrics")) {
      metrics_format = args.text("metrics", "json");
      if (metrics_format != "json" && metrics_format != "csv") {
        throw core::CliError("--metrics must be 'json' or 'csv', got '" +
                             metrics_format + "'");
      }
      core::telemetry::set_enabled(true);
    }

    // The rejection gate needs the loaders' telemetry counters even
    // when no --metrics dump was requested.
    double max_reject_frac = 1.0;
    const bool reject_gate_armed = args.has("max-reject-frac");
    if (reject_gate_armed) {
      max_reject_frac = args.number("max-reject-frac", 1.0);
      if (max_reject_frac < 0.0 || max_reject_frac > 1.0) {
        throw core::CliError("--max-reject-frac must be in [0, 1]");
      }
      core::telemetry::set_enabled(true);
    }

    int rc = 2;
    bool known = true;
    if (cmd == "simulate") rc = cmd_simulate(args);
    else if (cmd == "localize") rc = cmd_localize(args);
    else if (cmd == "containment") rc = cmd_containment(args);
    else if (cmd == "train") rc = cmd_train(args);
    else if (cmd == "fpga") rc = cmd_fpga(args);
    else if (cmd == "trigger") rc = cmd_trigger(args);
    else if (cmd == "skymap") rc = cmd_skymap(args);
    else if (cmd == "flood") rc = cmd_flood(args);
    else if (cmd == "campaign") rc = cmd_campaign(args);
    else if (cmd == "cpu-features" || cmd == "--cpu-features")
      rc = cmd_cpu_features(args);
    else known = false;

    if (!known) {
      usage();
      return 2;
    }
    if (!metrics_format.empty()) {
      const core::telemetry::Snapshot snap = core::telemetry::snapshot();
      if (metrics_format == "json") {
        snap.write_json(std::cout);
      } else {
        snap.write_csv(std::cout);
      }
    }
    if (reject_gate_armed && rc == 0) {
      const auto gate = eval::evaluate_reject_gate(
          core::telemetry::snapshot(), max_reject_frac);
      if (gate.breached) {
        std::fprintf(stderr,
                     "error: %llu of %llu ring records rejected "
                     "(%.1f%% > --max-reject-frac %.1f%%)\n",
                     static_cast<unsigned long long>(gate.rejected),
                     static_cast<unsigned long long>(gate.rejected +
                                                     gate.loaded),
                     100.0 * gate.fraction, 100.0 * max_reject_frac);
        return 3;
      }
    }
    return rc;
  } catch (const core::CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
