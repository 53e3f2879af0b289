/// Parameterized quantization properties: the QAT -> INT8 export chain
/// must preserve classification behaviour across architectures and
/// input ranges.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "nn/mlp.hpp"
#include "quant/fuse.hpp"
#include "quant/qat_linear.hpp"
#include "quant/quantized_mlp.hpp"

namespace adapt::quant {
namespace {

nn::Tensor random_batch(std::size_t n, std::size_t d, std::uint64_t seed,
                        double scale) {
  core::Rng rng(seed);
  nn::Tensor x(n, d);
  for (auto& v : x.vec())
    v = static_cast<float>(rng.uniform(-scale, scale));
  return x;
}

struct ArchCase {
  std::vector<std::size_t> widths;
  std::size_t input_dim;
  double input_scale;
};

// Printed into the parameterized test names; without it gtest dumps the
// struct's raw bytes, vector heap pointers included, so the names would
// change from one process to the next.
void PrintTo(const ArchCase& ac, std::ostream* os) {
  *os << "widths=";
  for (std::size_t i = 0; i < ac.widths.size(); ++i)
    *os << (i ? "x" : "") << ac.widths[i];
  *os << ",in=" << ac.input_dim << ",scale=" << ac.input_scale;
}

class QuantArchSweep : public ::testing::TestWithParam<ArchCase> {};

TEST_P(QuantArchSweep, ExportedEngineTracksQatModel) {
  const ArchCase& ac = GetParam();
  core::Rng rng(1234);
  nn::MlpSpec spec;
  spec.input_dim = ac.input_dim;
  spec.widths = ac.widths;
  spec.swap_bn_fc = true;
  nn::Sequential swapped = nn::build_mlp(spec, rng);
  for (int pass = 0; pass < 5; ++pass)
    (void)swapped.forward(
        random_batch(64, ac.input_dim, 10 + pass, ac.input_scale), true);

  const auto fused = fuse_bn(swapped);
  core::Rng qrng(99);
  nn::Sequential qat = build_qat_model(fused, qrng);
  for (int pass = 0; pass < 5; ++pass)
    (void)qat.forward(
        random_batch(64, ac.input_dim, 20 + pass, ac.input_scale), true);
  const QuantizedMlp engine = export_quantized(qat);

  const nn::Tensor x = random_batch(96, ac.input_dim, 777, ac.input_scale);
  const nn::Tensor y_qat = qat.forward(x, false);
  const nn::Tensor y_int8 = engine.forward(x);
  // Sign (classification) agreement must be near-total; numeric values
  // agree to requantization error.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < y_qat.rows(); ++i)
    if ((y_qat(i, 0) >= 0.0f) == (y_int8(i, 0) >= 0.0f)) ++agree;
  EXPECT_GE(agree, y_qat.rows() - y_qat.rows() / 10);
}

TEST_P(QuantArchSweep, WeightQuantizationErrorBounded) {
  const ArchCase& ac = GetParam();
  core::Rng rng(55);
  QatLinear lin(ac.input_dim, ac.widths.front(), rng);
  const auto qp = lin.channel_qparams();
  const nn::Tensor qw = lin.quantized_weight();
  for (std::size_t r = 0; r < qw.rows(); ++r)
    for (std::size_t c = 0; c < qw.cols(); ++c)
      ASSERT_NEAR(qw(r, c), lin.weight().value(r, c),
                  qp[r].scale / 2 + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, QuantArchSweep,
    ::testing::Values(ArchCase{{256, 128, 64}, 13, 2.0},   // Paper bkg net.
                      ArchCase{{8, 16, 8}, 13, 2.0},       // Paper dEta net.
                      ArchCase{{32, 32}, 8, 1.0},
                      ArchCase{{64}, 20, 5.0},
                      ArchCase{{256, 128, 64}, 13, 0.1}));  // Narrow inputs.

// ---------------------------------------------------------------------
// Activation range sweep for the affine quantizer.

class RangeSweep
    : public ::testing::TestWithParam<std::pair<float, float>> {};

TEST_P(RangeSweep, AffineRoundTripWithinHalfScale) {
  const auto [lo, hi] = GetParam();
  const QParams p = QParams::from_range(lo, hi);
  for (int i = 0; i <= 64; ++i) {
    const float x = lo + (hi - lo) * static_cast<float>(i) / 64.0f;
    ASSERT_NEAR(p.fake(x), x, p.scale / 2 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeSweep,
    ::testing::Values(std::pair{-1.0f, 1.0f}, std::pair{0.0f, 6.0f},
                      std::pair{-10.0f, 0.5f}, std::pair{-0.01f, 0.01f},
                      std::pair{-300.0f, 300.0f}));

}  // namespace
}  // namespace adapt::quant
