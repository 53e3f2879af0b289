/// End-to-end integration tests: the full chain from photons to a
/// localized burst, including a small-scale model training pass.
/// These use reduced statistics; the benches run the paper-scale
/// versions.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/units.hpp"
#include "eval/containment.hpp"
#include "eval/model_provider.hpp"
#include "fpga/hls_model.hpp"
#include "temp_path.hpp"

namespace adapt::eval {
namespace {

/// Shared tiny model set, trained once per test binary into an
/// isolated cache (never touching the benches' canonical cache).
class IntegrationTest : public ::testing::Test {
 protected:
  static std::string cache_dir() {
    return test::temp_path("adaptml_integration_models");
  }

  static void SetUpTestSuite() {
    setup_ = new TrialSetup();
    ModelProviderConfig cfg;
    cfg.cache_dir = cache_dir();
    std::filesystem::remove_all(cfg.cache_dir);
    cfg.dataset.rings_per_angle = 400;
    cfg.dataset.polar_angles_deg = {0, 20, 40, 60, 80};
    cfg.max_epochs = 8;
    cfg.patience = 8;
    cfg.qat_epochs = 1;
    provider_ = new ModelProvider(*setup_, cfg);
  }
  static void TearDownTestSuite() {
    delete provider_;
    delete setup_;
    std::filesystem::remove_all(cache_dir());
  }

  static TrialSetup* setup_;
  static ModelProvider* provider_;
};

TrialSetup* IntegrationTest::setup_ = nullptr;
ModelProvider* IntegrationTest::provider_ = nullptr;

TEST_F(IntegrationTest, TrainingProducesBetterThanChanceClassifier) {
  EXPECT_GT(provider_->background_test_accuracy(), 0.55);
}

TEST_F(IntegrationTest, DetaRegressionBeatsConstantPredictor) {
  // MSE against ln(d_eta) targets spanning [ln 1e-4, ln 2]: the raw
  // target variance is ~5-6, so even this severely reduced training
  // configuration (8 epochs, ~2k rings) must land well below it.
  EXPECT_LT(provider_->deta_test_mse(), 4.6);
}

TEST_F(IntegrationTest, BrightBurstLocalizesWithAndWithoutMl) {
  TrialSetup setup = *setup_;
  setup.grb.fluence = 2.0;
  setup.grb.polar_deg = 30.0;
  const TrialRunner runner(setup);

  PipelineVariant plain;
  PipelineVariant ml;
  ml.background_net = &provider_->background_net();
  ml.deta_net = &provider_->deta_net();

  int plain_ok = 0;
  int ml_ok = 0;
  for (int t = 0; t < 4; ++t) {
    core::Rng rng1(300 + t);
    core::Rng rng2(300 + t);
    const auto a = runner.run(plain, rng1);
    const auto b = runner.run(ml, rng2);
    if (a.valid && a.error_deg < 6.0) ++plain_ok;
    if (b.valid && b.error_deg < 6.0) ++ml_ok;
  }
  EXPECT_GE(plain_ok, 3);
  EXPECT_GE(ml_ok, 3);
}

TEST_F(IntegrationTest, MlImprovesDimBurstLocalization) {
  // The paper's headline: for dim bursts the ML pipeline beats the
  // prior pipeline.  Use a marginal fluence where the plain pipeline
  // struggles.
  TrialSetup setup = *setup_;
  setup.grb.fluence = 0.5;
  setup.grb.polar_deg = 20.0;
  const TrialRunner runner(setup);

  PipelineVariant plain;
  PipelineVariant ml;
  ml.background_net = &provider_->background_net();
  ml.deta_net = &provider_->deta_net();

  int plain_ok = 0;
  int ml_ok = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    core::Rng rng1(400 + t);
    core::Rng rng2(400 + t);
    if (const auto a = runner.run(plain, rng1); a.valid && a.error_deg < 6.0)
      ++plain_ok;
    if (const auto b = runner.run(ml, rng2); b.valid && b.error_deg < 6.0)
      ++ml_ok;
  }
  EXPECT_GE(ml_ok, plain_ok);
}

TEST_F(IntegrationTest, QuantizedNetAgreesWithFp32Mostly) {
  TrialSetup setup = *setup_;
  const TrialRunner runner(setup);
  core::Rng rng(17);
  const auto rings = runner.reconstruct_window(rng);
  ASSERT_GT(rings.size(), 50u);

  auto& fp32 = provider_->background_net();
  auto& int8 = provider_->background_net_int8();
  ASSERT_TRUE(int8.quantized());
  const auto a = fp32.classify(rings, 30.0);
  const auto b = int8.classify(rings, 30.0);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] == b[i]) ++agree;
  // INT8 and FP32 were trained independently (the INT8 path trains the
  // layer-swapped model), so expect agreement well above chance rather
  // than identity.
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(a.size()), 0.7);
}

TEST_F(IntegrationTest, FpgaKernelSynthesizesFromTrainedModel) {
  const auto spec = fpga::kernel_spec_from(provider_->fused_background());
  ASSERT_EQ(spec.size(), 4u);
  const auto int8 = fpga::synthesize(spec, fpga::DataType::kInt8);
  const auto fp32 = fpga::synthesize(spec, fpga::DataType::kFp32);
  EXPECT_GT(int8.throughput_per_second(), fp32.throughput_per_second());
}

TEST_F(IntegrationTest, ModelCacheRoundTripsThroughProvider) {
  // A second provider over the same cache directory must load rather
  // than retrain, and produce identical classifications.
  ModelProviderConfig cfg;
  cfg.cache_dir = cache_dir();
  cfg.dataset.rings_per_angle = 400;
  cfg.dataset.polar_angles_deg = {0, 20, 40, 60, 80};
  cfg.max_epochs = 8;
  cfg.patience = 8;
  cfg.qat_epochs = 1;
  ModelProvider reloaded(*setup_, cfg);

  const TrialRunner runner(*setup_);
  core::Rng rng(21);
  const auto rings = runner.reconstruct_window(rng);
  const auto a = provider_->background_net().classify(rings, 10.0);
  const auto b = reloaded.background_net().classify(rings, 10.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  const auto da = provider_->deta_net().predict(rings, 10.0);
  const auto db = reloaded.deta_net().predict(rings, 10.0);
  for (std::size_t i = 0; i < da.size(); ++i) EXPECT_NEAR(da[i], db[i], 1e-6);

  // The FPGA layer stack comes from the QAT net on both paths.
  const auto& fa = provider_->fused_background();
  const auto& fb = reloaded.fused_background();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t l = 0; l < fa.size(); ++l) {
    EXPECT_EQ(fa[l].weight.vec(), fb[l].weight.vec()) << "layer " << l;
    EXPECT_EQ(fa[l].bias, fb[l].bias) << "layer " << l;
    EXPECT_EQ(fa[l].relu, fb[l].relu) << "layer " << l;
  }
}

}  // namespace
}  // namespace adapt::eval
