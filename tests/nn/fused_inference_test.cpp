// Sequential::forward(x, /*training=*/false) fuses every Linear with
// the ReLU / BatchNorm1d layers after it and runs out of thread_local
// panels.  Its contract is bit-identity with the unfused chain of
// layer(i).forward(x, false) calls, which stay the reference: the
// fused logits decide which rings the Fig. 6 loop vetoes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/sequential.hpp"

namespace adapt::nn {
namespace {

const std::vector<std::size_t> kBatchSizes = {1, 3, 7, 8, 9, 64, 617};

Tensor random_input(std::size_t n, std::size_t d, core::Rng& rng) {
  Tensor x(n, d);
  for (float& v : x.vec()) v = static_cast<float>(rng.normal(0.0, 2.0));
  return x;
}

/// Gives every parameter and BN statistic a non-trivial value, so no
/// fused step can hide behind an identity (unit gamma, zero bias, ...).
void randomize(Sequential& model, core::Rng& rng) {
  for (Param* p : model.params())
    for (float& v : p->value.vec())
      v = static_cast<float>(rng.uniform(-0.8, 0.8)) +
          (p->name == "gamma" ? 1.0f : 0.0f);
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    auto* bn = dynamic_cast<BatchNorm1d*>(&model.layer(i));
    if (bn == nullptr) continue;
    for (float& m : bn->running_mean())
      m = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : bn->running_var())
      v = static_cast<float>(rng.uniform(0.05, 3.0));
  }
}

/// The reference: every layer's own inference forward, one by one.
Tensor layer_by_layer(Sequential& model, const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < model.n_layers(); ++i)
    y = model.layer(i).forward(y, /*training=*/false);
  return y;
}

void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << what;
}

/// Every ISA the host runs, each forced in turn.
template <typename Fn>
void for_each_isa(Fn&& fn) {
  for (int i = 0; i < kernels::kIsaCount; ++i) {
    const auto isa = static_cast<kernels::Isa>(i);
    if (!kernels::supported(isa)) continue;
    kernels::force_isa_for_testing(isa);
    fn(kernels::kernel_set(isa).name);
  }
  kernels::reset_forced_isa_for_testing();
}

void check_spec(const MlpSpec& spec, std::uint64_t seed) {
  core::Rng rng(seed);
  Sequential model = build_mlp(spec, rng);
  randomize(model, rng);
  for_each_isa([&](const std::string& isa) {
    for (const std::size_t n : kBatchSizes) {
      const Tensor x = random_input(n, spec.input_dim, rng);
      expect_bit_identical(model.forward(x, false), layer_by_layer(model, x),
                           isa + " n=" + std::to_string(n));
    }
  });
}

TEST(FusedInference, BackgroundNetPaperOrderMatchesLayerByLayer) {
  check_spec(background_net_spec(13), 1);  // BN -> FC -> ReLU blocks.
}

TEST(FusedInference, BackgroundNetSwappedOrderMatchesLayerByLayer) {
  check_spec(background_net_spec(13, /*swap_bn_fc=*/true), 2);  // FC->BN->ReLU.
}

TEST(FusedInference, DetaNetPaperOrderMatchesLayerByLayer) {
  check_spec(deta_net_spec(13), 3);
}

TEST(FusedInference, DetaNetSwappedOrderMatchesLayerByLayer) {
  MlpSpec spec = deta_net_spec(13);
  spec.swap_bn_fc = true;
  check_spec(spec, 4);
}

TEST(FusedInference, TrainedRunningStatisticsMatchLayerByLayer) {
  // Running statistics produced by real training-mode passes rather
  // than drawn at random.
  core::Rng rng(5);
  Sequential model = build_mlp(background_net_spec(13), rng);
  for (int pass = 0; pass < 5; ++pass)
    (void)model.forward(random_input(32, 13, rng), /*training=*/true);
  const Tensor x = random_input(617, 13, rng);
  expect_bit_identical(model.forward(x, false), layer_by_layer(model, x),
                       "trained");
}

TEST(FusedInference, UnrecognisedLayersRunTheirOwnForward) {
  // Sigmoid is not fused: it runs its own forward mid-stack, the BN and
  // ReLU after it then work in place on its output, and a trailing
  // ReLU after the last Linear lands in the epilogue.
  core::Rng rng(6);
  Sequential model;
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(5, 9, rng));
  model.add(std::make_unique<Sigmoid>());
  model.add(std::make_unique<BatchNorm1d>(9));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(9, 3, rng));
  model.add(std::make_unique<Sigmoid>());
  model.add(std::make_unique<BatchNorm1d>(3));
  randomize(model, rng);
  for (const std::size_t n : kBatchSizes) {
    const Tensor x = random_input(n, 5, rng);
    expect_bit_identical(model.forward(x, false), layer_by_layer(model, x),
                         "n=" + std::to_string(n));
  }
}

TEST(FusedInference, NetsOfDifferentWidthsShareOneThreadsPanels) {
  // The panels are thread_local and resized per call: a wide net after
  // a narrow one (and back) must neither overrun nor read stale rows.
  core::Rng rng(7);
  Sequential wide = build_mlp(background_net_spec(13), rng);
  Sequential narrow = build_mlp(deta_net_spec(13), rng);
  randomize(wide, rng);
  randomize(narrow, rng);
  for (const std::size_t n : {617u, 1u, 64u, 3u, 617u}) {
    const Tensor x = random_input(n, 13, rng);
    expect_bit_identical(wide.forward(x, false), layer_by_layer(wide, x),
                         "wide n=" + std::to_string(n));
    expect_bit_identical(narrow.forward(x, false), layer_by_layer(narrow, x),
                         "narrow n=" + std::to_string(n));
  }
}

TEST(FusedInference, EmptyBatchAndEmptyStackKeepTheirShapes) {
  core::Rng rng(8);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  const Tensor none(0, 13);
  const Tensor y = model.forward(none, false);
  EXPECT_EQ(y.rows(), 0u);
  EXPECT_EQ(y.cols(), 1u);

  Sequential empty;
  const Tensor x = random_input(4, 13, rng);
  expect_bit_identical(empty.forward(x, false), x, "empty stack");
}

TEST(FusedInference, WidthMismatchIsRejected) {
  core::Rng rng(9);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  EXPECT_THROW((void)model.forward(random_input(4, 12, rng), false),
               std::invalid_argument);
}

}  // namespace
}  // namespace adapt::nn
