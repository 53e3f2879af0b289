#pragma once

/// \file models.hpp
/// Deployment wrappers around the two trained networks.
///
/// A wrapper owns everything inference needs — the layer stack (FP32
/// or the INT8 engine), the input standardizer, and for the background
/// network the per-polar-bin thresholds — and exposes the ring-level
/// operations the localization pipeline calls (paper Fig. 6).

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/data.hpp"
#include "nn/sequential.hpp"
#include "quant/quantized_mlp.hpp"
#include "pipeline/features.hpp"
#include "pipeline/thresholds.hpp"
#include "recon/ring.hpp"

namespace adapt::pipeline {

/// Background-rejection network (classifier).  Supports the FP32
/// model and the INT8-quantized engine behind one interface so the
/// localization loop and the benches can swap them (Fig. 11).
class BackgroundNet {
 public:
  /// FP32 variant.
  BackgroundNet(nn::Sequential model, nn::Standardizer standardizer,
                PolarThresholds thresholds, bool uses_polar = true);
  /// INT8 variant.
  BackgroundNet(quant::QuantizedMlp model, nn::Standardizer standardizer,
                PolarThresholds thresholds, bool uses_polar = true);

  bool uses_polar() const { return uses_polar_; }
  bool quantized() const { return int8_.has_value(); }
  const PolarThresholds& thresholds() const { return thresholds_; }

  /// Raw logits for a batch of rings given the current polar guess.
  std::vector<float> logits(std::span<const recon::ComptonRing> rings,
                            double polar_deg_guess);

  /// Precompute the (unstandardized) feature matrix for a ring set.
  /// The 12 base features do not depend on the polar guess, so the
  /// Fig. 6 loop assembles them once during localization setup and
  /// re-classifies per iteration by rewriting only the polar column.
  nn::Tensor prepare_features(
      std::span<const recon::ComptonRing> rings) const;

  /// Logits from a prepared matrix at the given polar guess.
  std::vector<float> logits_prepared(const nn::Tensor& prepared,
                                     double polar_deg_guess);

  /// Classification from a prepared matrix (1 = background).
  std::vector<std::uint8_t> classify_prepared(const nn::Tensor& prepared,
                                              double polar_deg_guess);

  /// Classification with the bin's dynamic threshold: 1 = background.
  std::vector<std::uint8_t> classify(std::span<const recon::ComptonRing> rings,
                                     double polar_deg_guess);

  /// Logits for an externally assembled (unstandardized) feature
  /// matrix — used by infer_batch, threshold fitting and tests.
  std::vector<float> logits_for_features(const nn::Tensor& raw_features);

  /// Persist / restore (FP32 variant only; the INT8 engine is
  /// re-exported from its QAT model instead).
  bool save(const std::string& path);
  static std::optional<BackgroundNet> load(const std::string& path);

  nn::Sequential* fp32_model() { return fp32_ ? &*fp32_ : nullptr; }
  quant::QuantizedMlp* int8_model() { return int8_ ? &*int8_ : nullptr; }
  const nn::Standardizer& standardizer() const { return standardizer_; }

  /// Digest over every deployed weight byte (FP32 stack or INT8
  /// engine) plus the standardizer — the reference serve::StreamRouter
  /// records and revalidates on health ticks (SEU
  /// detection).  Deterministic for identical weights.
  std::uint64_t weight_checksum();

 private:
  std::optional<nn::Sequential> fp32_;
  std::optional<quant::QuantizedMlp> int8_;
  nn::Standardizer standardizer_;
  PolarThresholds thresholds_;
  bool uses_polar_ = true;
};

/// dEta regression network: predicts ln(d_eta); exposed as d_eta with
/// sane bounds.
///
/// A scalar coverage calibration multiplies the prediction so the
/// quoted width is statistically honest: it is fit on validation data
/// as the 68th percentile of |true error| / predicted width, making
/// "within 1 d_eta" mean 68% by construction (see
/// bench_ablation_deta for the before/after coverage numbers).
class DEtaNet {
 public:
  DEtaNet(nn::Sequential model, nn::Standardizer standardizer,
          bool uses_polar = true, double calibration = 1.0);

  bool uses_polar() const { return uses_polar_; }
  double calibration() const { return calibration_; }

  /// Predicted d_eta for each ring (exp of the network output,
  /// clamped to [floor, cap]).
  std::vector<double> predict(std::span<const recon::ComptonRing> rings,
                              double polar_deg_guess, double floor = 1e-4,
                              double cap = 2.0);

  /// Prediction from an externally assembled (unstandardized) feature
  /// matrix — infer_batch builds the matrix once per flush and shares
  /// it between the networks.  The tensor is taken by
  /// value because standardization happens in place on it.
  std::vector<double> predict_for_features(nn::Tensor raw_features,
                                           double floor, double cap);

  bool save(const std::string& path);
  static std::optional<DEtaNet> load(const std::string& path);

  nn::Sequential* model() { return &model_; }
  const nn::Standardizer& standardizer() const { return standardizer_; }

  /// Digest over the regression stack's weights plus the standardizer
  /// (see BackgroundNet::weight_checksum).
  std::uint64_t weight_checksum();

 private:
  std::vector<double> predict_from_features(nn::Tensor x, double floor,
                                            double cap);

  nn::Sequential model_;
  nn::Standardizer standardizer_;
  bool uses_polar_ = true;
  double calibration_ = 1.0;
};

/// Non-owning bundle of the deployed networks: the handle the
/// localization loop and the serving layer (`adapt::serve`) share.
/// Either pointer may be null — a null background net classifies
/// nothing as background, a null dEta net passes the analytic
/// (propagated) d_eta through — which is also exactly the degraded
/// behavior the server falls back to under overload.
///
/// Thread-safety: infer_batch is safe from concurrent threads on the
/// same underlying nets — inference forward passes write no model
/// state (enforced by tests/serve/concurrent tests under the TSan
/// gate).
struct Models {
  BackgroundNet* background = nullptr;
  DEtaNet* deta = nullptr;

  /// Outputs of one fused batch inference (see infer_batch).
  struct BatchInference {
    std::vector<std::uint8_t> is_background;  ///< 1 = background veto.
    std::vector<double> d_eta;                ///< clamped to [floor, cap].
    bool used_deta_net = false;  ///< false = analytic passthrough.
  };

  /// The one batched forward, with an independent polar guess per
  /// ring (each queued request carries the localization estimate
  /// current when it was enqueued): assembles the ring-feature matrix
  /// ONCE per flush and runs both networks from it.  With the INT8
  /// background engine that means one quantization of the panel and
  /// one quantized GEMM per layer for the whole batch.  The serving
  /// layer's entry point (serve::StreamRouter calls it per batch).
  /// Null nets: no ring is background, and d_eta is each ring's
  /// propagated width clamped to [floor, cap].  `allow_deta = false`
  /// (the server's degraded mode) skips the dEta forward and applies
  /// that same analytic clamp.
  /// Bit-identical to per-ring classify() / predict() calls at the same
  /// guesses: the GEMM kernels accumulate each output row in plain
  /// ascending-k order regardless of batch size, and the INT8 path is
  /// integer arithmetic throughout (tests/serve/batch_equivalence).
  BatchInference infer_batch(std::span<const recon::ComptonRing> rings,
                             std::span<const double> polar_deg_per_ring,
                             double floor = 1e-4, double cap = 2.0,
                             bool allow_deta = true) const;
};

}  // namespace adapt::pipeline
