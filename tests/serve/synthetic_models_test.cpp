#include "serve/synthetic_models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "pipeline/features.hpp"
#include "pipeline/models.hpp"

namespace adapt::serve {
namespace {

TEST(SyntheticModels, RingsAreFiniteAndPlausible) {
  core::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const recon::ComptonRing ring = synthetic_ring(rng);
    EXPECT_TRUE(std::isfinite(ring.eta));
    EXPECT_GE(ring.eta, -1.0);
    EXPECT_LE(ring.eta, 1.0);
    EXPECT_GT(ring.d_eta, 0.0);
    EXPECT_GT(ring.e_total, 0.0);
    EXPECT_NEAR(ring.axis.norm(), 1.0, 1e-9);
    EXPECT_GE(ring.n_hits, 2);
  }
}

struct Batch {
  std::vector<recon::ComptonRing> rings;
  std::vector<double> polar;
};

Batch make_batch(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  Batch b;
  for (std::size_t i = 0; i < n; ++i) {
    b.rings.push_back(synthetic_ring(rng));
    b.polar.push_back(rng.uniform(0.0, 90.0));
  }
  return b;
}

void expect_same(const pipeline::Models::BatchInference& a,
                 const pipeline::Models::BatchInference& b) {
  EXPECT_EQ(a.is_background, b.is_background);
  EXPECT_EQ(a.d_eta, b.d_eta);
  EXPECT_EQ(a.used_deta_net, b.used_deta_net);
}

TEST(SyntheticModels, SameSeedSameOutputs) {
  const Batch x = make_batch(8, 5);

  auto a = synthetic_background_net(42);
  auto b = synthetic_background_net(42);
  auto da = synthetic_deta_net(42);
  auto db = synthetic_deta_net(42);
  expect_same(pipeline::Models{&a, &da}.infer_batch(x.rings, x.polar),
              pipeline::Models{&b, &db}.infer_batch(x.rings, x.polar));
  EXPECT_EQ(a.weight_checksum(), b.weight_checksum());
  EXPECT_EQ(da.weight_checksum(), db.weight_checksum());

  auto qa = synthetic_background_net_int8(42);
  auto qb = synthetic_background_net_int8(42);
  expect_same(pipeline::Models{&qa, nullptr}.infer_batch(x.rings, x.polar),
              pipeline::Models{&qb, nullptr}.infer_batch(x.rings, x.polar));
  EXPECT_EQ(qa.weight_checksum(), qb.weight_checksum());
  EXPECT_TRUE(qa.quantized());
}

TEST(SyntheticModels, DifferentSeedsDiffer) {
  const Batch x = make_batch(32, 6);
  auto a = synthetic_background_net(1);
  auto b = synthetic_background_net(2);
  auto da = synthetic_deta_net(1);
  auto db = synthetic_deta_net(2);
  EXPECT_NE(a.weight_checksum(), b.weight_checksum());
  const pipeline::Models ma{&a, &da};
  const pipeline::Models mb{&b, &db};
  const auto out_a = ma.infer_batch(x.rings, x.polar);
  const auto out_b = mb.infer_batch(x.rings, x.polar);
  EXPECT_NE(out_a.is_background, out_b.is_background);
  EXPECT_NE(out_a.d_eta, out_b.d_eta);
}

TEST(SyntheticModels, OutputsAreFinite) {
  const Batch x = make_batch(32, 7);
  auto fp32 = synthetic_background_net(9);
  auto int8 = synthetic_background_net_int8(9);
  auto deta = synthetic_deta_net(9);
  const nn::Tensor features = pipeline::feature_matrix(
      x.rings, std::span<const double>(x.polar));
  for (const float l : fp32.logits_for_features(features))
    EXPECT_TRUE(std::isfinite(l));
  for (const float l : int8.logits_for_features(features))
    EXPECT_TRUE(std::isfinite(l));
  for (pipeline::BackgroundNet* background : {&fp32, &int8}) {
    const auto out =
        pipeline::Models{background, &deta}.infer_batch(x.rings, x.polar);
    ASSERT_EQ(out.is_background.size(), x.rings.size());
    EXPECT_TRUE(out.used_deta_net);
    for (const double d : out.d_eta) {
      EXPECT_GE(d, 1e-4);
      EXPECT_LE(d, 2.0);
    }
  }
}

}  // namespace
}  // namespace adapt::serve
