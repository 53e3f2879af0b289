#include "serve/synthetic_models.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "nn/data.hpp"
#include "nn/mlp.hpp"
#include "pipeline/features.hpp"
#include "pipeline/thresholds.hpp"
#include "quant/qparams.hpp"
#include "quant/quantized_mlp.hpp"

namespace adapt::serve {

namespace {

/// Standardizer fit on a seeded synthetic ring population so the
/// network sees roughly unit-scale inputs (matters for the INT8
/// activation ranges below).
nn::Standardizer fitted_standardizer(core::Rng& rng) {
  constexpr std::size_t kFitRings = 256;
  std::vector<recon::ComptonRing> rings;
  std::vector<double> polar;
  rings.reserve(kFitRings);
  for (std::size_t i = 0; i < kFitRings; ++i) {
    rings.push_back(synthetic_ring(rng));
    polar.push_back(rng.uniform(0.0, 90.0));
  }
  nn::Standardizer standardizer;
  standardizer.fit(pipeline::feature_matrix(rings, polar));
  return standardizer;
}

pipeline::PolarThresholds seeded_thresholds(core::Rng& rng) {
  pipeline::PolarThresholds thresholds;
  for (int bin = 0; bin < pipeline::PolarThresholds::kNumBins; ++bin)
    thresholds.set_logit_threshold(bin, rng.uniform(-0.5, 0.5));
  return thresholds;
}

}  // namespace

pipeline::BackgroundNet synthetic_background_net(std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Sequential model = nn::build_mlp(nn::background_net_spec(), rng);
  nn::Standardizer standardizer = fitted_standardizer(rng);
  pipeline::PolarThresholds thresholds = seeded_thresholds(rng);
  return pipeline::BackgroundNet(std::move(model), std::move(standardizer),
                                 std::move(thresholds), /*uses_polar=*/true);
}

pipeline::BackgroundNet synthetic_background_net_int8(std::uint64_t seed) {
  core::Rng rng(seed);
  // Paper dimensions: 13 -> 256 -> 128 -> 64 -> 1, ReLU between.
  const std::vector<std::size_t> dims = {13, 256, 128, 64, 1};
  std::vector<quant::QuantizedLayer> layers;
  for (std::size_t li = 0; li + 1 < dims.size(); ++li) {
    quant::QuantizedLayer layer;
    layer.in_features = dims[li];
    layer.out_features = dims[li + 1];
    layer.relu = li + 2 < dims.size();
    // First layer sees standardized (~N(0,1)) features; later layers
    // see post-ReLU uint8 activations of the previous requant range.
    layer.input_q = li == 0 ? quant::QParams::from_range(-4.0f, 4.0f)
                            : quant::QParams::from_range(0.0f, 8.0f);
    layer.weight.resize(layer.in_features * layer.out_features);
    for (std::int8_t& w : layer.weight)
      w = static_cast<std::int8_t>(
          static_cast<std::int64_t>(rng.uniform_index(41)) - 20);
    layer.weight_scales.assign(layer.out_features, 0.02f);
    layer.bias.resize(layer.out_features);
    for (std::int32_t& b : layer.bias)
      b = static_cast<std::int32_t>(
          static_cast<std::int64_t>(rng.uniform_index(201)) - 100);
    layers.push_back(std::move(layer));
  }
  quant::QuantizedMlp engine(std::move(layers));
  nn::Standardizer standardizer = fitted_standardizer(rng);
  pipeline::PolarThresholds thresholds = seeded_thresholds(rng);
  return pipeline::BackgroundNet(std::move(engine), std::move(standardizer),
                                 std::move(thresholds), /*uses_polar=*/true);
}

pipeline::DEtaNet synthetic_deta_net(std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Sequential model = nn::build_mlp(nn::deta_net_spec(), rng);
  nn::Standardizer standardizer = fitted_standardizer(rng);
  return pipeline::DEtaNet(std::move(model), std::move(standardizer),
                           /*uses_polar=*/true);
}

recon::ComptonRing synthetic_ring(core::Rng& rng) {
  recon::ComptonRing ring;
  ring.axis = rng.isotropic_direction();
  ring.eta = rng.uniform(-0.95, 0.95);
  ring.d_eta = rng.uniform(0.005, 0.4);
  ring.hit1.position = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                        rng.uniform(0.0, 40.0)};
  ring.hit2.position = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                        rng.uniform(0.0, 40.0)};
  ring.hit1.energy = rng.uniform(0.05, 2.0);
  ring.hit2.energy = rng.uniform(0.05, 2.0);
  ring.hit1.sigma_energy = rng.uniform(0.005, 0.1);
  ring.hit2.sigma_energy = rng.uniform(0.005, 0.1);
  ring.e_total = ring.hit1.energy + ring.hit2.energy;
  ring.sigma_e_total = ring.hit1.sigma_energy + ring.hit2.sigma_energy;
  ring.n_hits = 2 + static_cast<int>(rng.uniform_index(4));
  ring.order_chi2 = rng.uniform(0.0, 5.0);
  ring.true_direction = rng.hemisphere_direction_up();
  return ring;
}

}  // namespace adapt::serve
