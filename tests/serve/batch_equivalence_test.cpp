#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/contract.hpp"
#include "pipeline/features.hpp"
#include "pipeline/models.hpp"
#include "serve/synthetic_models.hpp"

// The serving layer's core claim: one N-row batched forward is
// BIT-IDENTICAL to N single-ring forwards.  This holds because the
// GEMM kernels accumulate each output row in plain ascending-k order
// regardless of batch size, the INT8 engine is integer arithmetic
// throughout, and the feature/standardizer transforms are row-wise.
// Any "approximately equal" here would mean batching changes science
// results — these tests use exact equality on purpose.

namespace adapt::serve {
namespace {

struct Stream {
  std::vector<recon::ComptonRing> rings;
  std::vector<double> polar;
};

Stream make_stream(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  Stream s;
  for (std::size_t i = 0; i < n; ++i) {
    s.rings.push_back(synthetic_ring(rng));
    s.polar.push_back(rng.uniform(0.0, 90.0));
  }
  return s;
}

/// Models::infer_batch over the whole mixed-polar stream against a
/// per-ring classify() / predict() loop at each ring's own guess.
/// Either net may be null; a null dEta net's loop value is the
/// analytic clamp.
void expect_batch_matches_loop(const pipeline::Models& models,
                               const Stream& s, double floor = 1e-4,
                               double cap = 2.0) {
  const auto batch = models.infer_batch(s.rings, s.polar, floor, cap);
  ASSERT_EQ(batch.is_background.size(), s.rings.size());
  ASSERT_EQ(batch.d_eta.size(), s.rings.size());
  EXPECT_EQ(batch.used_deta_net, models.deta != nullptr);
  for (std::size_t i = 0; i < s.rings.size(); ++i) {
    const std::span<const recon::ComptonRing> one(&s.rings[i], 1);
    std::uint8_t loop_cls = 0;
    if (models.background != nullptr) {
      const auto cls = models.background->classify(one, s.polar[i]);
      ASSERT_EQ(cls.size(), 1u);
      loop_cls = cls[0];
    }
    double loop_d_eta = std::clamp(s.rings[i].d_eta, floor, cap);
    if (models.deta != nullptr) {
      const auto d = models.deta->predict(one, s.polar[i], floor, cap);
      ASSERT_EQ(d.size(), 1u);
      loop_d_eta = d[0];
    }
    EXPECT_EQ(batch.is_background[i], loop_cls) << "ring " << i;
    // Bitwise double equality, deliberately.
    EXPECT_EQ(batch.d_eta[i], loop_d_eta) << "ring " << i;
  }
}

/// The background logits behind the decision, bit for bit: the batch
/// logits through the same feature layout infer_batch assembles.
void expect_background_logits_match_loop(pipeline::BackgroundNet& net,
                                         const Stream& s) {
  const auto batch = net.logits_for_features(
      pipeline::feature_matrix(s.rings, std::span<const double>(s.polar)));
  ASSERT_EQ(batch.size(), s.rings.size());
  for (std::size_t i = 0; i < s.rings.size(); ++i) {
    const std::span<const recon::ComptonRing> one(&s.rings[i], 1);
    const auto loop_logit = net.logits(one, s.polar[i]);
    ASSERT_EQ(loop_logit.size(), 1u);
    // Bitwise float equality, deliberately.
    EXPECT_EQ(batch[i], loop_logit[0]) << "ring " << i;
  }
}

TEST(BatchEquivalence, FloatBackgroundNetBitIdentical) {
  auto net = synthetic_background_net(101);
  const Stream s = make_stream(33, 1);
  expect_background_logits_match_loop(net, s);
  expect_batch_matches_loop(pipeline::Models{&net, nullptr}, s);
}

TEST(BatchEquivalence, Int8BackgroundNetBitIdentical) {
  auto net = synthetic_background_net_int8(102);
  const Stream s = make_stream(33, 2);
  expect_background_logits_match_loop(net, s);
  expect_batch_matches_loop(pipeline::Models{&net, nullptr}, s);
}

TEST(BatchEquivalence, DEtaNetBitIdentical) {
  auto net = synthetic_deta_net(103);
  expect_batch_matches_loop(pipeline::Models{nullptr, &net},
                            make_stream(33, 3));
}

TEST(BatchEquivalence, SingleRingBatch) {
  auto background = synthetic_background_net(104);
  auto deta = synthetic_deta_net(105);
  expect_batch_matches_loop(pipeline::Models{&background, &deta},
                            make_stream(1, 4));
}

TEST(BatchEquivalence, EmptyBatch) {
  auto background = synthetic_background_net(106);
  auto deta = synthetic_deta_net(107);
  const pipeline::Models models{&background, &deta};
  const auto out = models.infer_batch({}, {});
  EXPECT_TRUE(out.is_background.empty());
  EXPECT_TRUE(out.d_eta.empty());
}

TEST(BatchEquivalence, ModelsBundleMatchesDirectCalls) {
  auto background = synthetic_background_net(108);
  auto deta = synthetic_deta_net(109);
  expect_batch_matches_loop(pipeline::Models{&background, &deta},
                            make_stream(17, 5));
  // The INT8 engine beside the dEta net, at non-default bounds.
  auto int8 = synthetic_background_net_int8(111);
  expect_batch_matches_loop(pipeline::Models{&int8, &deta},
                            make_stream(17, 8), 0.01, 0.3);
}

TEST(BatchEquivalence, NullModelsFallBackToAnalytic) {
  const pipeline::Models models{};
  const Stream s = make_stream(9, 6);
  const auto out = models.infer_batch(s.rings, s.polar, 0.01, 0.3);
  for (const auto c : out.is_background) EXPECT_EQ(c, 0);
  EXPECT_FALSE(out.used_deta_net);
  ASSERT_EQ(out.d_eta.size(), s.rings.size());
  for (std::size_t i = 0; i < out.d_eta.size(); ++i)
    EXPECT_EQ(out.d_eta[i], std::clamp(s.rings[i].d_eta, 0.01, 0.3));
}

TEST(BatchEquivalence, MismatchedPolarSpanRejected) {
  auto net = synthetic_background_net(110);
  const pipeline::Models models{&net, nullptr};
  const Stream s = make_stream(4, 7);
  const std::vector<double> short_polar(3, 10.0);
  EXPECT_THROW(models.infer_batch(s.rings, short_polar),
               core::ContractViolation);
}

}  // namespace
}  // namespace adapt::serve
