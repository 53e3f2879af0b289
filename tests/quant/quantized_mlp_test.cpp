#include "quant/quantized_mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/contract.hpp"
#include "core/stats.hpp"
#include "nn/mlp.hpp"
#include "quant/fake_quant.hpp"
#include "quant/fuse.hpp"
#include "quant/qat_linear.hpp"
#include "quant/serialize.hpp"
#include "temp_path.hpp"

namespace adapt::quant {
namespace {

nn::Tensor random_batch(std::size_t n, std::size_t d, std::uint64_t seed,
                        double lo = -2.0, double hi = 2.0) {
  core::Rng rng(seed);
  nn::Tensor x(n, d);
  for (auto& v : x.vec()) v = static_cast<float>(rng.uniform(lo, hi));
  return x;
}

/// End-to-end QAT assembly for a trained swapped-architecture model.
struct QatFixture {
  nn::Sequential qat;
  std::vector<FusedLayer> fused;

  explicit QatFixture(std::uint64_t seed, std::size_t dim = 13) {
    core::Rng rng(seed);
    nn::Sequential swapped =
        nn::build_mlp(nn::background_net_spec(dim, true), rng);
    // Calibrate batchnorm running stats.
    for (int pass = 0; pass < 6; ++pass)
      (void)swapped.forward(random_batch(64, dim, seed + 1 + pass), true);
    fused = fuse_bn(swapped);
    core::Rng qrng(seed + 99);
    qat = build_qat_model(fused, qrng);
    // Calibrate activation observers.
    for (int pass = 0; pass < 6; ++pass)
      (void)qat.forward(random_batch(64, dim, seed + 50 + pass), true);
  }
};

TEST(FakeQuantLayer, TracksRangeAndQuantizes) {
  FakeQuant fq(1.0);  // Momentum 1: range = last batch.
  nn::Tensor x(2, 2);
  x.vec() = {-1.0f, 0.5f, 2.0f, 0.0f};
  const nn::Tensor y = fq.forward(x, true);
  EXPECT_TRUE(fq.observed());
  const QParams p = fq.qparams();
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y.vec()[i], x.vec()[i], p.scale / 2 + 1e-6);
}

TEST(FakeQuantLayer, InferenceBeforeObservationIsIdentity) {
  FakeQuant fq;
  nn::Tensor x(1, 3);
  x.vec() = {1.0f, -2.0f, 3.0f};
  const nn::Tensor y = fq.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_FLOAT_EQ(y.vec()[i], x.vec()[i]);
}

TEST(FakeQuantLayer, StraightThroughGradientMasksClipped) {
  FakeQuant fq;
  fq.set_range(-1.0f, 1.0f);
  nn::Tensor x(1, 3);
  x.vec() = {0.5f, 5.0f, -5.0f};  // Middle entry clipped high, last low.
  (void)fq.forward(x, true);
  nn::Tensor g(1, 3, 1.0f);
  const nn::Tensor dx = fq.backward(g);
  EXPECT_FLOAT_EQ(dx(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 0.0f);
}

TEST(QatLinearLayer, ForwardUsesQuantizedWeights) {
  core::Rng rng(1);
  QatLinear lin(2, 1, rng);
  nn::Tensor w(1, 2);
  w.vec() = {1.0f, 0.701f};
  lin.load_weights(w, {0.0f});
  nn::Tensor x(1, 2);
  x.vec() = {1.0f, 1.0f};
  const nn::Tensor y = lin.forward(x, false);
  // Result equals the per-channel fake-quantized weights' dot product.
  const auto qp = lin.channel_qparams();
  const float expected = qp[0].fake(1.0f) + qp[0].fake(0.701f);
  EXPECT_NEAR(y(0, 0), expected, 1e-6);
  // And differs (slightly) from the latent FP32 result.
  EXPECT_NE(y(0, 0), 1.701f);
}

TEST(QatLinearLayer, GivenWeightsAreTakenAsTheyAre) {
  const std::vector<float> w = {1.0f, 0.701f, -0.25f, -0.0f};
  const std::vector<float> b = {0.5f, -1.5f};
  QatLinear lin(2, 2, w, b);
  ASSERT_EQ(lin.weight().value.rows(), 2u);
  ASSERT_EQ(lin.weight().value.cols(), 2u);
  EXPECT_EQ(std::memcmp(lin.weight().value.data(), w.data(),
                        w.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(lin.bias().value.data(), b.data(),
                        b.size() * sizeof(float)),
            0);
  EXPECT_EQ(lin.weight().grad.size(), w.size());
  EXPECT_EQ(lin.bias().grad.size(), b.size());
}

TEST(QatLinearLayer, GivenWeightSizesAreChecked) {
  // Weight must be in x out = 6 floats, bias out = 3.
  EXPECT_THROW(QatLinear(2, 3, std::vector<float>(5), std::vector<float>(3)),
               core::ContractViolation);
  EXPECT_THROW(QatLinear(2, 3, std::vector<float>(7), std::vector<float>(3)),
               core::ContractViolation);
  EXPECT_THROW(QatLinear(2, 3, std::vector<float>(6), std::vector<float>(2)),
               core::ContractViolation);
  EXPECT_THROW(QatLinear(2, 3, std::vector<float>(6), std::vector<float>(4)),
               core::ContractViolation);
  EXPECT_THROW(QatLinear(0, 3, std::vector<float>(), std::vector<float>(3)),
               core::ContractViolation);
  EXPECT_NO_THROW(
      QatLinear(2, 3, std::vector<float>(6), std::vector<float>(3)));
}

TEST(QuantizedEngine, MatchesQatModelClosely) {
  QatFixture fixture(7);
  QuantizedMlp engine = export_quantized(fixture.qat);
  const nn::Tensor x = random_batch(64, 13, 1234);
  const nn::Tensor y_qat = fixture.qat.forward(x, false);
  const nn::Tensor y_int8 = engine.forward(x);
  ASSERT_EQ(y_qat.size(), y_int8.size());
  // The integer path re-quantizes activations; allow a small
  // tolerance relative to the logit spread.
  core::RunningStat spread;
  for (float v : y_qat.vec()) spread.add(v);
  const double tol = std::max(0.1, 0.15 * spread.stddev());
  for (std::size_t i = 0; i < y_qat.size(); ++i)
    EXPECT_NEAR(y_int8.vec()[i], y_qat.vec()[i], tol) << "row " << i;
}

TEST(QuantizedEngine, ApproximatesFp32Model) {
  QatFixture fixture(8);
  QuantizedMlp engine = export_quantized(fixture.qat);
  const nn::Tensor x = random_batch(128, 13, 4321);
  const nn::Tensor y_fp32 = fused_forward(fixture.fused, x);
  const nn::Tensor y_int8 = engine.forward(x);
  // Classification agreement at threshold 0 should be high.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < y_fp32.rows(); ++i) {
    if ((y_fp32(i, 0) >= 0.0f) == (y_int8(i, 0) >= 0.0f)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(y_fp32.rows()),
            0.9);
}

TEST(QuantizedEngine, ModelSizeIsQuarterOfFp32Weights) {
  QatFixture fixture(9);
  QuantizedMlp engine = export_quantized(fixture.qat);
  std::size_t fp32_weight_bytes = 0;
  for (const auto& f : fixture.fused)
    fp32_weight_bytes += 4 * f.weight.size();
  // INT8 weights are 1/4 the FP32 weights; bias/scales add a little.
  EXPECT_LT(engine.model_size_bytes(), fp32_weight_bytes / 2);
  EXPECT_GT(engine.model_size_bytes(), fp32_weight_bytes / 8);
}

TEST(QuantizedEngine, LayerMetadataPreserved) {
  QatFixture fixture(10);
  QuantizedMlp engine = export_quantized(fixture.qat);
  ASSERT_EQ(engine.layers().size(), 4u);
  EXPECT_EQ(engine.layers()[0].in_features, 13u);
  EXPECT_EQ(engine.layers()[0].out_features, 256u);
  EXPECT_TRUE(engine.layers()[0].relu);
  EXPECT_FALSE(engine.layers()[3].relu);
}

TEST(QuantizedEngine, PaperDimensionPanelAndLogicalSizesArePinned) {
  // 13 -> 256 -> 128 -> 64 -> 1.  The packed panels the forward reads
  // hold sum ceil(in/4)*4 * ceil(out/16)*16 bytes (16 x 4 blocks):
  // 16*256 + 256*128 + 128*64 + 64*16 = 46,080.  model_size_bytes()
  // stays the logical INT8 footprint Table III and the FPGA example
  // report: 44,352 weights + 449 int32 biases + 449 float scales.
  QatFixture fixture(14);
  const QuantizedMlp engine = export_quantized(fixture.qat);
  ASSERT_EQ(engine.num_layers(), 4u);
  EXPECT_EQ(engine.packed_weight_bytes(), 46080u);
  EXPECT_EQ(engine.model_size_bytes(), 47944u);
}

TEST(QuantizedEngine, WeightBitFlipLandsOnTheLogicalWeight) {
  // The SEU hook names a row-major byte oc * in + ic (wrapping modulo
  // in * out); the flip must land on exactly that weight of the packed
  // panel, in every layer, including the 13-wide first and the
  // 1-wide last layer.
  QatFixture fixture(15);
  QuantizedMlp engine = export_quantized(fixture.qat);
  const std::vector<QuantizedLayer> before = engine.layers();
  const std::uint64_t digest = engine.weight_checksum();
  for (std::size_t li = 0; li < before.size(); ++li) {
    const std::size_t count = before[li].weight.size();
    const std::size_t byte_index = 3 * count + 37 % count;
    engine.flip_weight_bit(li, byte_index, 9);  // Bit 9 wraps to bit 1.
    EXPECT_NE(engine.weight_checksum(), digest) << "layer " << li;
    const std::vector<QuantizedLayer> after = engine.layers();
    for (std::size_t lj = 0; lj < before.size(); ++lj)
      for (std::size_t i = 0; i < before[lj].weight.size(); ++i) {
        const bool flipped = lj == li && i == byte_index % count;
        EXPECT_EQ(after[lj].weight[i],
                  static_cast<std::int8_t>(before[lj].weight[i] ^
                                           (flipped ? 2 : 0)))
            << "flip in layer " << li << " seen at layer " << lj
            << " byte " << i;
      }
    engine.flip_weight_bit(li, byte_index, 9);
    EXPECT_EQ(engine.weight_checksum(), digest) << "layer " << li;
  }
}

TEST(QuantizedEngine, ExportRequiresCalibration) {
  core::Rng rng(11);
  nn::Sequential swapped =
      nn::build_mlp(nn::background_net_spec(13, true), rng);
  for (int pass = 0; pass < 3; ++pass)
    (void)swapped.forward(random_batch(32, 13, 500 + pass), true);
  const auto fused = fuse_bn(swapped);
  core::Rng qrng(12);
  nn::Sequential qat = build_qat_model(fused, qrng);
  // No calibration pass: observers never saw data.
  EXPECT_THROW(export_quantized(qat), std::invalid_argument);
}

TEST(QatIo, RoundTripPreservesQuantizedBehaviour) {
  QatFixture fixture(13);
  nn::Standardizer std_;
  nn::Tensor fitdata = random_batch(64, 13, 77);
  std_.fit(fitdata);
  const std::string path = test::temp_path("adaptml_qat_file_test", ".adnn");
  ASSERT_TRUE(save_model(fixture.qat, std_,
                         {{"polar_thr_0", -0.4}, {"config_sig", 12.0}}, path));
  auto loaded = load_model(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->metadata.at("polar_thr_0"), -0.4);
  ASSERT_TRUE(loaded->standardizer.fitted());

  QuantizedMlp original = export_quantized(fixture.qat);
  QuantizedMlp restored = export_quantized(loaded->model);
  const nn::Tensor x = random_batch(32, 13, 88);
  const nn::Tensor y0 = original.forward(x);
  const nn::Tensor y1 = restored.forward(x);
  for (std::size_t i = 0; i < y0.size(); ++i)
    EXPECT_NEAR(y0.vec()[i], y1.vec()[i], 1e-5);
  std::remove(path.c_str());
}

TEST(QatIo, MissingOrCorruptFileRejected) {
  EXPECT_FALSE(load_model(test::temp_path("nonexistent", ".adnn")).has_value());
}

}  // namespace
}  // namespace adapt::quant
