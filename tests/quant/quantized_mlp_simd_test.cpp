#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/tensor.hpp"
#include "quant/quantized_mlp.hpp"

namespace adapt::quant {
namespace {

namespace nk = nn::kernels;

std::vector<nk::Isa> supported_isas() {
  std::vector<nk::Isa> out;
  for (int i = 0; i < nk::kIsaCount; ++i) {
    const auto isa = static_cast<nk::Isa>(i);
    if (nk::supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Restores normal dispatch even when an ASSERT bails out of a test.
struct ForcedIsa {
  explicit ForcedIsa(nk::Isa isa) { nk::force_isa_for_testing(isa); }
  ~ForcedIsa() { nk::reset_forced_isa_for_testing(); }
};

std::int32_t int_in(core::Rng& rng, std::int32_t lo, std::int32_t hi) {
  return lo + static_cast<std::int32_t>(rng.uniform_index(
                  static_cast<std::uint64_t>(hi - lo) + 1));
}

/// A synthetic engine with realistic qparams: enough layers to
/// exercise the requant path between layers (every layer but the last)
/// and the float epilogue on the last.
QuantizedMlp make_engine(const std::vector<std::size_t>& widths,
                         std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<QuantizedLayer> layers;
  for (std::size_t li = 0; li + 1 < widths.size(); ++li) {
    QuantizedLayer l;
    l.in_features = widths[li];
    l.out_features = widths[li + 1];
    l.relu = li + 2 < widths.size();
    l.weight.resize(l.in_features * l.out_features);
    for (auto& w : l.weight)
      w = static_cast<std::int8_t>(int_in(rng, -127, 127));
    l.bias.resize(l.out_features);
    for (auto& b : l.bias) b = int_in(rng, -30000, 30000);
    l.weight_scales.resize(l.out_features);
    for (auto& s : l.weight_scales)
      s = static_cast<float>(rng.uniform(5e-4, 5e-3));
    l.input_q = QParams::from_range(static_cast<float>(rng.uniform(-4.0, -0.5)),
                                    static_cast<float>(rng.uniform(0.5, 4.0)));
    layers.push_back(std::move(l));
  }
  return QuantizedMlp(std::move(layers));
}

nn::Tensor random_batch(std::size_t n, std::size_t d, std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Tensor x(n, d);
  for (auto& v : x.vec()) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  return x;
}

void expect_bit_identical(const nn::Tensor& a, const nn::Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.vec()[i], b.vec()[i]) << what << " idx=" << i;
}

TEST(QuantizedMlpSimd, ForwardBitIdenticalAcrossIsas) {
  // The paper's background-net shape, hitting the 64-wide VNNI path,
  // the 16-wide AVX2 path, and every remainder tail (13 % 16 != 0).
  const QuantizedMlp engine = make_engine({13, 256, 128, 64, 1}, 42);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}}) {
    const nn::Tensor x = random_batch(batch, 13, 1000 + batch);
    nn::Tensor want;
    {
      ForcedIsa forced(nk::Isa::kScalar);
      want = engine.forward(x);
    }
    for (const nk::Isa isa : supported_isas()) {
      if (isa == nk::Isa::kScalar) continue;
      ForcedIsa forced(isa);
      const nn::Tensor got = engine.forward(x);
      expect_bit_identical(got, want, nk::kernel_set(isa).name);
    }
  }
}

TEST(QuantizedMlpSimd, OddWidthsBitIdenticalAcrossIsas) {
  // Widths that are odd at every layer: in_features % vector width is
  // nonzero everywhere, so each variant's masked/scalar tails run.
  const QuantizedMlp engine = make_engine({7, 33, 17, 3}, 7);
  const nn::Tensor x = random_batch(5, 7, 555);
  nn::Tensor want;
  {
    ForcedIsa forced(nk::Isa::kScalar);
    want = engine.forward(x);
  }
  for (const nk::Isa isa : supported_isas()) {
    if (isa == nk::Isa::kScalar) continue;
    ForcedIsa forced(isa);
    expect_bit_identical(engine.forward(x), want, nk::kernel_set(isa).name);
  }
}

TEST(QuantizedMlpSimd, LayerWiderThanOneRowBlockBitIdenticalAcrossIsas) {
  // 600 x 300 = 180k MACs per row is more than the forward's ~128k-MAC
  // row block, so each block is one kernel tile of rows; 21 rows leave
  // a short last tile.
  const QuantizedMlp engine = make_engine({600, 300, 1}, 5);
  const nn::Tensor x = random_batch(21, 600, 77);
  nn::Tensor want;
  {
    ForcedIsa forced(nk::Isa::kScalar);
    want = engine.forward(x);
  }
  for (const nk::Isa isa : supported_isas()) {
    if (isa == nk::Isa::kScalar) continue;
    ForcedIsa forced(isa);
    expect_bit_identical(engine.forward(x), want, nk::kernel_set(isa).name);
  }
}

TEST(QuantizedMlpSimd, CrossWidthEngineInterleavingIsStable) {
  // Regression guard for the thread_local ping-pong scratch buffers in
  // forward(): one thread serving engines of different widths back to
  // back must re-size the panels per call.  A stale smaller capacity
  // would make the wide engine scribble out of bounds (ASan) or read
  // the narrow engine's leftovers (caught here as a bit difference).
  const QuantizedMlp wide = make_engine({13, 256, 128, 64, 1}, 1);
  const QuantizedMlp narrow = make_engine({4, 8, 1}, 2);
  const nn::Tensor xw = random_batch(33, 13, 10);
  const nn::Tensor xn = random_batch(65, 4, 11);

  const nn::Tensor w0 = wide.forward(xw);
  const nn::Tensor n0 = narrow.forward(xn);
  const nn::Tensor w1 = wide.forward(xw);   // After narrow ran.
  const nn::Tensor n1 = narrow.forward(xn); // After wide re-grew.
  expect_bit_identical(w1, w0, "wide after narrow");
  expect_bit_identical(n1, n0, "narrow after wide");
}

TEST(QuantizedMlpSimd, SeuBitFlipDetectedIdenticallyThroughEveryVariant) {
  // The fault layer's SEU story must survive the SIMD kernels: a
  // flipped weight bit changes the checksum (the serve router's
  // detection channel), and the corrupted engine still computes
  // bit-identically across variants — corruption must never hide
  // behind kernel-dependent noise.  One flip per layer, so the 13-wide
  // first layer (a partial 4-byte group in every block) and the 1-wide
  // last layer (15 padding channels) are both hit.
  QuantizedMlp engine = make_engine({13, 64, 32, 1}, 99);
  const nn::Tensor x = random_batch(16, 13, 3);
  const std::uint64_t checksum_before = engine.weight_checksum();

  nn::Tensor clean_want;
  {
    ForcedIsa forced(nk::Isa::kScalar);
    clean_want = engine.forward(x);
  }

  for (std::size_t layer = 0; layer < engine.num_layers(); ++layer) {
    // Byte 12 is (oc 0, ic 12) of the 13-wide layer, the last input
    // of its partial group; in the other layers an interior weight.
    engine.flip_weight_bit(layer, 12, 6);
    EXPECT_NE(engine.weight_checksum(), checksum_before) << "layer " << layer;

    nn::Tensor corrupt_want;
    {
      ForcedIsa forced(nk::Isa::kScalar);
      corrupt_want = engine.forward(x);
    }
    for (const nk::Isa isa : supported_isas()) {
      if (isa == nk::Isa::kScalar) continue;
      ForcedIsa forced(isa);
      expect_bit_identical(engine.forward(x), corrupt_want,
                           nk::kernel_set(isa).name);
    }

    // Flipping the same bit back restores the digest exactly.
    engine.flip_weight_bit(layer, 12, 6);
    EXPECT_EQ(engine.weight_checksum(), checksum_before) << "layer " << layer;
  }
  ForcedIsa forced(nk::Isa::kScalar);
  expect_bit_identical(engine.forward(x), clean_want, "restored weights");
}

}  // namespace
}  // namespace adapt::quant
