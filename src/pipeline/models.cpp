#include "pipeline/models.hpp"

#include <algorithm>
#include <cmath>

#include "core/checksum.hpp"
#include "core/contract.hpp"
#include "quant/serialize.hpp"

namespace adapt::pipeline {

BackgroundNet::BackgroundNet(nn::Sequential model,
                             nn::Standardizer standardizer,
                             PolarThresholds thresholds, bool uses_polar)
    : fp32_(std::move(model)),
      standardizer_(std::move(standardizer)),
      thresholds_(std::move(thresholds)),
      uses_polar_(uses_polar) {}

BackgroundNet::BackgroundNet(quant::QuantizedMlp model,
                             nn::Standardizer standardizer,
                             PolarThresholds thresholds, bool uses_polar)
    : int8_(std::move(model)),
      standardizer_(std::move(standardizer)),
      thresholds_(std::move(thresholds)),
      uses_polar_(uses_polar) {}

std::vector<float> BackgroundNet::logits_for_features(
    const nn::Tensor& raw_features) {
  nn::Tensor x = standardizer_.fitted() ? standardizer_.transform(raw_features)
                                        : raw_features;
  nn::Tensor out;
  if (int8_) {
    out = int8_->forward(x);
  } else {
    ADAPT_REQUIRE(fp32_.has_value(), "background net has no model");
    out = fp32_->forward(x, /*training=*/false);
  }
  ADAPT_REQUIRE(out.cols() == 1, "background net must output one logit");
  std::vector<float> logits(out.rows());
  for (std::size_t i = 0; i < logits.size(); ++i) logits[i] = out(i, 0);
  return logits;
}

std::vector<float> BackgroundNet::logits(
    std::span<const recon::ComptonRing> rings, double polar_deg_guess) {
  if (rings.empty()) return {};
  return logits_for_features(
      feature_matrix(rings, uses_polar_, polar_deg_guess));
}

std::vector<std::uint8_t> BackgroundNet::classify(
    std::span<const recon::ComptonRing> rings, double polar_deg_guess) {
  const auto l = logits(rings, polar_deg_guess);
  std::vector<std::uint8_t> out(l.size());
  for (std::size_t i = 0; i < l.size(); ++i)
    out[i] = thresholds_.is_background(l[i], polar_deg_guess) ? 1 : 0;
  return out;
}

bool BackgroundNet::save(const std::string& path) {
  ADAPT_REQUIRE(fp32_.has_value(),
                "only the FP32 background net serializes directly");
  auto meta = thresholds_.to_metadata();
  meta["uses_polar"] = uses_polar_ ? 1.0 : 0.0;
  return quant::save_model(*fp32_, standardizer_, meta, path);
}

std::optional<BackgroundNet> BackgroundNet::load(const std::string& path) {
  auto saved = quant::load_model(path);
  if (!saved) return std::nullopt;
  const bool uses_polar =
      saved->metadata.count("uses_polar") == 0 ||
      saved->metadata.at("uses_polar") > 0.5;
  return BackgroundNet(std::move(saved->model), std::move(saved->standardizer),
                       PolarThresholds::from_metadata(saved->metadata),
                       uses_polar);
}

namespace {

/// Standardizer bytes folded into the model digest: a corrupted mean
/// or inverse-std poisons every feature before the first layer, so it
/// is part of the deployed state the checksum guards.
void fold_standardizer(core::Fnv1a64& h, const nn::Standardizer& s) {
  if (!s.fitted()) return;
  h.update(s.mean().data(), s.mean().size() * sizeof(float));
  h.update(s.inv_std().data(), s.inv_std().size() * sizeof(float));
}

}  // namespace

std::uint64_t BackgroundNet::weight_checksum() {
  core::Fnv1a64 h;
  const std::uint64_t model_digest =
      int8_ ? int8_->weight_checksum() : quant::weight_checksum(*fp32_);
  h.update(&model_digest, sizeof(model_digest));
  fold_standardizer(h, standardizer_);
  return h.digest();
}

std::uint64_t DEtaNet::weight_checksum() {
  core::Fnv1a64 h;
  const std::uint64_t model_digest = quant::weight_checksum(model_);
  h.update(&model_digest, sizeof(model_digest));
  fold_standardizer(h, standardizer_);
  return h.digest();
}

DEtaNet::DEtaNet(nn::Sequential model, nn::Standardizer standardizer,
                 bool uses_polar)
    : model_(std::move(model)),
      standardizer_(std::move(standardizer)),
      uses_polar_(uses_polar) {}

std::vector<double> DEtaNet::predict_from_features(nn::Tensor x, double floor,
                                                   double cap) {
  if (standardizer_.fitted()) standardizer_.transform_in_place(x);
  const nn::Tensor out = model_.forward(x, /*training=*/false);
  ADAPT_REQUIRE(out.cols() == 1, "dEta net must output one value");
  std::vector<double> d(out.rows());
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = std::clamp(std::exp(static_cast<double>(out(i, 0))), floor, cap);
  return d;
}

std::vector<double> DEtaNet::predict(std::span<const recon::ComptonRing> rings,
                                     double polar_deg_guess, double floor,
                                     double cap) {
  ADAPT_REQUIRE(floor > 0.0 && cap > floor, "invalid d_eta bounds");
  if (rings.empty()) return {};
  return predict_from_features(
      feature_matrix(rings, uses_polar_, polar_deg_guess), floor, cap);
}

std::vector<double> DEtaNet::predict_for_features(nn::Tensor raw_features,
                                                  double floor, double cap) {
  ADAPT_REQUIRE(floor > 0.0 && cap > floor, "invalid d_eta bounds");
  if (raw_features.rows() == 0) return {};
  return predict_from_features(std::move(raw_features), floor, cap);
}

bool DEtaNet::save(const std::string& path) {
  std::map<std::string, double> meta;
  meta["uses_polar"] = uses_polar_ ? 1.0 : 0.0;
  return quant::save_model(model_, standardizer_, meta, path);
}

std::optional<DEtaNet> DEtaNet::load(const std::string& path) {
  auto saved = quant::load_model(path);
  if (!saved) return std::nullopt;
  const bool uses_polar =
      saved->metadata.count("uses_polar") == 0 ||
      saved->metadata.at("uses_polar") > 0.5;
  return DEtaNet(std::move(saved->model), std::move(saved->standardizer),
                 uses_polar);
}

Models::BatchInference Models::infer_batch(
    std::span<const recon::ComptonRing> rings,
    std::span<const double> polar_deg_per_ring, double floor, double cap,
    bool allow_deta) const {
  ADAPT_REQUIRE(floor > 0.0 && cap > floor, "invalid d_eta bounds");
  ADAPT_REQUIRE(polar_deg_per_ring.size() == rings.size(),
                "per-ring polar guess count mismatch");
  BatchInference out;
  if (rings.empty()) return out;

  // Assemble each feature layout at most once per flush, shared
  // between the networks.  Two layouts can coexist (a polar-aware
  // background net beside a polar-free dEta net); each is built
  // lazily on first use.  Both feature_matrix overloads write the
  // same static_cast<float>(polar) column the per-ring calls write,
  // which is what keeps this path bit-identical to them.
  nn::Tensor with_polar;
  nn::Tensor without_polar;
  const auto features_for = [&](bool uses_polar) -> const nn::Tensor& {
    if (uses_polar) {
      if (with_polar.rows() == 0)
        with_polar = feature_matrix(rings, polar_deg_per_ring);
      return with_polar;
    }
    if (without_polar.rows() == 0)
      without_polar = feature_matrix(rings, false, 0.0);
    return without_polar;
  };

  if (background != nullptr) {
    const std::vector<float> logits =
        background->logits_for_features(features_for(background->uses_polar()));
    out.is_background.resize(logits.size());
    const PolarThresholds& thresholds = background->thresholds();
    for (std::size_t i = 0; i < logits.size(); ++i)
      out.is_background[i] =
          thresholds.is_background(logits[i], polar_deg_per_ring[i]) ? 1 : 0;
  } else {
    out.is_background.assign(rings.size(), 0);
  }

  if (deta != nullptr && allow_deta) {
    out.d_eta = deta->predict_for_features(features_for(deta->uses_polar()),
                                           floor, cap);
    out.used_deta_net = true;
  } else {
    out.d_eta.resize(rings.size());
    for (std::size_t i = 0; i < rings.size(); ++i)
      out.d_eta[i] = std::clamp(rings[i].d_eta, floor, cap);
  }
  return out;
}

}  // namespace adapt::pipeline
