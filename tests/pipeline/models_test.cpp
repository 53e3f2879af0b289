#include "pipeline/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "serve/synthetic_models.hpp"

namespace adapt::pipeline {
namespace {

/// A Linear(d -> 1) stack with all-zero weights and a fixed bias: a
/// constant-logit model, ideal for exercising wrapper mechanics.
nn::Sequential constant_logit_model(std::size_t input_dim, float bias) {
  core::Rng rng(1);
  nn::Sequential model;
  auto lin = std::make_unique<nn::Linear>(input_dim, 1, rng);
  lin->weight().value.zero();
  lin->bias().value(0, 0) = bias;
  model.add(std::move(lin));
  return model;
}

recon::ComptonRing some_ring(detector::Origin origin) {
  recon::ComptonRing r;
  r.axis = {0.0, 0.0, 1.0};
  r.eta = 0.3;
  r.d_eta = 0.08;
  r.e_total = 0.9;
  r.sigma_e_total = 0.02;
  r.hit1 = recon::RingHit{{0.5, 0.5, -0.5}, 0.4, {0.1, 0.1, 0.3}, 0.01};
  r.hit2 = recon::RingHit{{2.0, 1.0, -10.5}, 0.5, {0.1, 0.1, 0.3}, 0.012};
  r.origin = origin;
  return r;
}

TEST(BackgroundNetWrapper, ConstantLogitClassifiesUniformly) {
  BackgroundNet net(constant_logit_model(13, 3.0f), {}, {}, true);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb),
      some_ring(detector::Origin::kBackground)};
  const auto logits = net.logits(rings, 20.0);
  ASSERT_EQ(logits.size(), 2u);
  EXPECT_FLOAT_EQ(logits[0], 3.0f);
  // Threshold 0 (default): everything flagged background.
  const auto cls = net.classify(rings, 20.0);
  EXPECT_EQ(cls[0], 1);
  EXPECT_EQ(cls[1], 1);
}

TEST(BackgroundNetWrapper, ThresholdShiftsDecision) {
  PolarThresholds thresholds;
  thresholds.set_logit_threshold(2, 5.0);  // Bin for 25 degrees.
  BackgroundNet net(constant_logit_model(13, 3.0f), {}, thresholds, true);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb)};
  // At 25 deg, threshold 5 > logit 3: kept as GRB.
  EXPECT_EQ(net.classify(rings, 25.0)[0], 0);
  // At 45 deg, neutral threshold: flagged.
  EXPECT_EQ(net.classify(rings, 45.0)[0], 1);
}

TEST(BackgroundNetWrapper, PolarFlagControlsFeatureWidth) {
  // A 12-input model must be driven without the polar column.
  BackgroundNet net(constant_logit_model(12, -1.0f), {}, {}, false);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb)};
  EXPECT_NO_THROW(net.logits(rings, 0.0));
  EXPECT_FALSE(net.uses_polar());
}

TEST(BackgroundNetWrapper, EmptyInputYieldsEmptyOutput) {
  BackgroundNet net(constant_logit_model(13, 0.0f), {}, {}, true);
  EXPECT_TRUE(net.logits({}, 0.0).empty());
  EXPECT_TRUE(net.classify({}, 0.0).empty());
}

TEST(BackgroundNetWrapper, StandardizerAppliedBeforeModel) {
  // Weight 1 on feature 0 (total energy), zero bias: logit equals the
  // standardized energy.
  core::Rng rng(2);
  nn::Sequential model;
  auto lin = std::make_unique<nn::Linear>(13, 1, rng);
  lin->weight().value.zero();
  lin->weight().value(0, 0) = 1.0f;
  lin->bias().value(0, 0) = 0.0f;
  model.add(std::move(lin));

  nn::Standardizer std_;
  std::vector<float> mean(13, 0.0f);
  std::vector<float> inv_std(13, 1.0f);
  mean[0] = 0.9f;   // Equals the test ring's total energy.
  inv_std[0] = 2.0f;
  std_.set(mean, inv_std);

  BackgroundNet net(std::move(model), std_, {}, true);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb)};
  const auto logits = net.logits(rings, 0.0);
  EXPECT_NEAR(logits[0], 0.0f, 1e-6);  // (0.9 - 0.9) * 2.
}

TEST(BackgroundNetWrapper, PreparedPathEqualsRingPathBitForBit) {
  // The Fig. 6 loop classifies from features prepared once per burst
  // (classify_prepared); every other caller goes through classify.  At
  // the same polar guess both must give the same logits bit for bit,
  // through the fused FP32 forward, at paper-sized and odd batches.
  auto net = serve::synthetic_background_net(71);
  core::Rng rng(72);
  nn::Sequential& model = *net.fp32_model();
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    auto* bn = dynamic_cast<nn::BatchNorm1d*>(&model.layer(i));
    if (bn == nullptr) continue;
    for (float& m : bn->running_mean())
      m = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (float& v : bn->running_var())
      v = static_cast<float>(rng.uniform(0.2, 2.0));
  }
  for (const std::size_t n : {std::size_t{1}, std::size_t{24},
                              std::size_t{617}}) {
    std::vector<recon::ComptonRing> rings;
    for (std::size_t i = 0; i < n; ++i)
      rings.push_back(serve::synthetic_ring(rng));
    const nn::Tensor prepared = net.prepare_features(rings);
    for (const double polar : {0.0, 17.5, 44.0, 80.0}) {
      const auto direct = net.logits(rings, polar);
      const auto via_prepared = net.logits_prepared(prepared, polar);
      ASSERT_EQ(direct.size(), n);
      ASSERT_EQ(via_prepared.size(), n);
      EXPECT_EQ(std::memcmp(direct.data(), via_prepared.data(),
                            n * sizeof(float)),
                0)
          << "n=" << n << " polar=" << polar;
      EXPECT_EQ(net.classify_prepared(prepared, polar),
                net.classify(rings, polar))
          << "n=" << n << " polar=" << polar;
    }
  }
}

TEST(BackgroundNetWrapper, SaveLoadRoundTrip) {
  const std::string path = "/tmp/adaptml_bkgnet_test.adnn";
  PolarThresholds thresholds;
  thresholds.set_logit_threshold(0, -0.7);
  BackgroundNet net(constant_logit_model(13, 1.5f), {}, thresholds, true);
  ASSERT_TRUE(net.save(path));

  auto loaded = BackgroundNet::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->uses_polar());
  EXPECT_DOUBLE_EQ(loaded->thresholds().logit_threshold(5.0), -0.7);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb)};
  EXPECT_FLOAT_EQ(loaded->logits(rings, 0.0)[0], 1.5f);
  std::remove(path.c_str());
}

TEST(BackgroundNetWrapper, LoadMissingFileFails) {
  EXPECT_FALSE(BackgroundNet::load("/tmp/missing_net.adnn").has_value());
}

TEST(DEtaNetWrapper, PredictsExpOfOutput) {
  // Constant output ln(0.05) -> d_eta 0.05 for every ring.
  DEtaNet net(constant_logit_model(13, std::log(0.05f)), {}, true);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb),
      some_ring(detector::Origin::kBackground)};
  const auto d = net.predict(rings, 30.0);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NEAR(d[0], 0.05, 1e-6);
  EXPECT_NEAR(d[1], 0.05, 1e-6);
}

TEST(DEtaNetWrapper, OutputClampedToBounds) {
  DEtaNet huge(constant_logit_model(13, 10.0f), {}, true);
  DEtaNet tiny(constant_logit_model(13, -30.0f), {}, true);
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb)};
  EXPECT_DOUBLE_EQ(huge.predict(rings, 0.0, 1e-4, 2.0)[0], 2.0);
  EXPECT_DOUBLE_EQ(tiny.predict(rings, 0.0, 1e-4, 2.0)[0], 1e-4);
  EXPECT_THROW(huge.predict(rings, 0.0, 0.0, 2.0), std::invalid_argument);
}

TEST(DEtaNetWrapper, SaveLoadRoundTrip) {
  const std::string path = "/tmp/adaptml_detanet_test.adnn";
  DEtaNet net(constant_logit_model(13, std::log(0.1f)), {}, true);
  ASSERT_TRUE(net.save(path));
  auto loaded = DEtaNet::load(path);
  ASSERT_TRUE(loaded.has_value());
  const std::vector<recon::ComptonRing> rings{
      some_ring(detector::Origin::kGrb)};
  EXPECT_NEAR(loaded->predict(rings, 0.0)[0], 0.1, 1e-6);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adapt::pipeline
