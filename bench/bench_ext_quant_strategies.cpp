/// \file bench_ext_quant_strategies.cpp
/// Extension experiment (the paper's second item of future work,
/// Sec. VI): "a broader range of quantization strategies for our
/// models."
///
/// We sweep the weight bit width (8/6/4 bits, symmetric) and compare
/// per-channel against per-tensor weight scales, reporting:
///   * classification agreement with the FP32 reference on a realistic
///     ring batch;
///   * localization containment with the quantized background network
///     in the loop;
///   * the analytic FPGA kernel's II and resources at that width.
///
/// Expected: INT8 is essentially free (Fig. 11's finding); accuracy
/// erodes as bits shrink while FPGA resources keep improving —
/// mapping the trade-off space the paper proposes to explore.

#include <filesystem>
#include <iostream>

#include "bench_common.hpp"
#include "fpga/hls_model.hpp"
#include "nn/mlp.hpp"
#include "quant/qat_linear.hpp"
#include "quant/quantized_mlp.hpp"
#include "quant/serialize.hpp"

using namespace adapt;

int main() {
  auto cc = bench::containment_config(0xE117'2);
  bench::print_banner("Extension — quantization strategy sweep",
                      "paper Sec. VI future work (not evaluated there)", cc);

  eval::TrialSetup setup = bench::default_setup();
  const eval::ModelProviderConfig provider_config = bench::provider_config();
  eval::ModelProvider provider(setup, provider_config);

  // Rebuild the QAT stack from the cached calibrated model at each
  // strategy (weights and activation ranges are shared; only the
  // weight quantizer changes).
  const std::string qat_path =
      (std::filesystem::path(provider_config.cache_dir) / "background_qat.adnn")
          .string();
  auto saved = quant::load_model(qat_path);
  if (!saved) {
    std::printf("missing %s — run examples/train_models first\n",
                qat_path.c_str());
    return 1;
  }

  // FP32 reference logits on a realistic batch.
  const eval::TrialRunner runner(setup);
  core::Rng rng(31337);
  const auto rings = runner.reconstruct_window(rng);
  auto& fp32_net = provider.background_net();
  const auto ref = fp32_net.classify(rings, 30.0);

  struct Strategy {
    const char* label;
    quant::QuantStrategy strategy;
    int fpga_bits;
  };
  const Strategy strategies[] = {
      {"INT8 per-channel (paper)", {8, true}, 8},
      {"INT8 per-tensor", {8, false}, 8},
      {"INT6 per-channel", {6, true}, 6},
      {"INT4 per-channel", {4, true}, 4},
      {"INT4 per-tensor", {4, false}, 4},
  };

  const auto kernel_spec = fpga::kernel_spec_from(provider.fused_background());

  core::TextTable table({"strategy", "agree w/ FP32 [%]", "ML 68% [deg]",
                         "ML 95% [deg]", "FPGA II [cyc]", "FPGA DSP",
                         "FPGA BRAM"});
  cc.trials = std::max<std::size_t>(cc.trials / 2, 10);  // Keep runtime sane.
  for (const Strategy& s : strategies) {
    // Re-apply the strategy to the calibrated QAT stack.
    auto reloaded = quant::load_model(qat_path);
    for (std::size_t i = 0; i < reloaded->model.n_layers(); ++i) {
      if (auto* lin = dynamic_cast<quant::QatLinear*>(
              &reloaded->model.layer(i))) {
        lin->set_weight_bits(s.strategy.weight_bits);
        lin->set_per_channel(s.strategy.per_channel);
      }
    }
    pipeline::BackgroundNet net(
        quant::export_quantized(reloaded->model), reloaded->standardizer,
        pipeline::PolarThresholds::from_metadata(reloaded->metadata), true);

    const auto cls = net.classify(rings, 30.0);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < cls.size(); ++i)
      if (cls[i] == ref[i]) ++agree;

    eval::PipelineVariant variant;
    variant.background_net = &net;
    variant.deta_net = &provider.deta_net();
    const auto summary = eval::measure_containment(runner, variant, cc);

    const auto model = fpga::DataTypeModel::narrow_int(s.fpga_bits);
    const auto kernel = fpga::synthesize(kernel_spec, fpga::DataType::kInt8,
                                         {}, &model);

    table.add_row(
        {s.label,
         core::TextTable::num(
             100.0 * static_cast<double>(agree) / static_cast<double>(cls.size()), 1),
         bench::pm(summary.c68), bench::pm(summary.c95),
         core::TextTable::integer(static_cast<long long>(kernel.ii_cycles)),
         core::TextTable::integer(static_cast<long long>(kernel.dsp)),
         core::TextTable::integer(static_cast<long long>(kernel.bram))});
  }
  table.print(std::cout,
              "Quantization strategies: accuracy vs FPGA cost "
              "(1 MeV/cm^2 at 0 deg)");
  table.write_csv("bench_ext_quant_strategies.csv");

  std::printf(
      "\nreading: accuracy should be flat INT8 -> INT6 and erode at "
      "INT4 (per-tensor\nworst), while II/DSP/BRAM keep shrinking — the "
      "trade-off space of the paper's\nproposed future study.\n");
  return 0;
}
