#pragma once

/// \file model_provider.hpp
/// Trains (or loads from an on-disk cache) every network variant the
/// experiments need:
///
///   * the background network (paper hyperparameters: batch 4096,
///     lr 5.204e-4, 4 FC layers, widths 256/128/64 tapering);
///   * the dEta network (batch 256, lr 4.375e-3, widths 8/16/8);
///   * a background network *without* the polar-angle feature
///     (Fig. 7's ablation);
///   * the layer-swapped background network and its QAT-calibrated
///     INT8 derivative (Sec. V / Fig. 11).
///
/// Training data come from the simulation per dataset_gen.hpp.  Every
/// bench shares one cache directory so the (single-core) training cost
/// is paid once; delete the directory to force retraining.

#include <memory>
#include <string>

#include "eval/dataset_gen.hpp"
#include "pipeline/models.hpp"
#include "quant/quantized_mlp.hpp"

namespace adapt::eval {

struct ModelProviderConfig {
  std::string cache_dir = "adaptml_models";
  DatasetGenConfig dataset;
  std::size_t max_epochs = 45;   ///< Paper: 120; reduced for the
                                 ///< single-core environment, override
                                 ///< with ADAPT_TRAIN_EPOCHS.
  std::size_t patience = 10;
  std::size_t qat_epochs = 4;    ///< QAT fine-tuning epochs.
  std::uint64_t seed = 0x7ea1;
  bool verbose = false;
};

/// Owns the trained model set.  Wrappers hand out non-owning pointers
/// for PipelineVariant.
class ModelProvider {
 public:
  /// Build everything: load each artifact from cache when present,
  /// otherwise generate data, train, and populate the cache.  The
  /// instrument configuration must match the one used at evaluation
  /// time (`setup` is the template whose grb.polar_deg is swept).
  ModelProvider(const TrialSetup& setup, const ModelProviderConfig& config);

  pipeline::BackgroundNet& background_net() { return *background_; }
  pipeline::BackgroundNet& background_net_no_polar() {
    return *background_no_polar_;
  }
  pipeline::BackgroundNet& background_net_int8() { return *background_int8_; }
  pipeline::DEtaNet& deta_net() { return *deta_; }

  /// The layer stack of the (swapped) background net as its QAT net
  /// holds it — input to the FPGA kernel model.  The same whether the
  /// models were trained or loaded from the cache.
  const std::vector<quant::FusedLayer>& fused_background() const {
    return fused_background_;
  }

  /// Held-out test metrics gathered during training (0 when all
  /// models came from cache).
  double background_test_accuracy() const { return background_accuracy_; }
  double deta_test_mse() const { return deta_mse_; }

  /// Coverage-calibration factor fitted on validation (1.0 when the
  /// models came from a cache without one).  It makes the quoted widths
  /// statistically honest (68% of rings within one width, what sky
  /// maps and credible radii need) but uniformly inflates them, which
  /// loosens the robust localizer's inlier cut; the deployed dEta net
  /// is the raw regression, as in the paper, and bench_ablation_deta
  /// measures the trade-off.
  double deta_calibration() const { return deta_calibration_; }

 private:
  void train_all(const TrialSetup& setup);

  ModelProviderConfig config_;
  std::unique_ptr<pipeline::BackgroundNet> background_;
  std::unique_ptr<pipeline::BackgroundNet> background_no_polar_;
  std::unique_ptr<pipeline::BackgroundNet> background_int8_;
  std::unique_ptr<pipeline::DEtaNet> deta_;
  std::vector<quant::FusedLayer> fused_background_;
  double background_accuracy_ = 0.0;
  double deta_mse_ = 0.0;
  double deta_calibration_ = 1.0;
};

/// Environment-variable override helpers shared by the benches:
/// returns `fallback` when the variable is unset or blank, the parsed
/// value when it holds a positive number, and throws
/// std::invalid_argument on anything else (malformed text, trailing
/// garbage, zero/negative, out of range) — a mistyped scale knob must
/// not silently run a differently sized experiment.
std::size_t env_size(const char* name, std::size_t fallback);
double env_double(const char* name, double fallback);

}  // namespace adapt::eval
