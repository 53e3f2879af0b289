#include "pipeline/thresholds.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace adapt::pipeline {
namespace {

TEST(Thresholds, BinningCoversFieldOfView) {
  EXPECT_EQ(PolarThresholds::bin_of(0.0), 0);
  EXPECT_EQ(PolarThresholds::bin_of(9.99), 0);
  EXPECT_EQ(PolarThresholds::bin_of(10.0), 1);
  EXPECT_EQ(PolarThresholds::bin_of(45.0), 4);
  EXPECT_EQ(PolarThresholds::bin_of(89.9), 8);
  // Clamped outside [0, 90).
  EXPECT_EQ(PolarThresholds::bin_of(-5.0), 0);
  EXPECT_EQ(PolarThresholds::bin_of(120.0), 8);
}

TEST(Thresholds, DefaultIsNeutral) {
  const PolarThresholds t;
  for (double angle : {5.0, 35.0, 85.0})
    EXPECT_DOUBLE_EQ(t.logit_threshold(angle), 0.0);
}

TEST(Thresholds, SetAndGetPerBin) {
  PolarThresholds t;
  t.set_logit_threshold(3, -1.5);
  EXPECT_DOUBLE_EQ(t.logit_threshold(35.0), -1.5);
  EXPECT_DOUBLE_EQ(t.logit_threshold(25.0), 0.0);
  EXPECT_THROW(t.set_logit_threshold(9, 0.0), std::invalid_argument);
  EXPECT_THROW(t.set_logit_threshold(-1, 0.0), std::invalid_argument);
}

TEST(Thresholds, BackgroundWhenLogitReachesItsBinThreshold) {
  PolarThresholds t;
  t.set_logit_threshold(3, -1.5);
  EXPECT_TRUE(t.is_background(-1.5f, 35.0));  // At the threshold.
  EXPECT_FALSE(t.is_background(-1.6f, 35.0));
  // Same logit, other bin (neutral threshold 0): kept.
  EXPECT_FALSE(t.is_background(-1.5f, 25.0));
  EXPECT_TRUE(t.is_background(0.0f, 25.0));
}

TEST(Thresholds, FitSeparatesCleanBins) {
  // Bin at 15 deg: GRB logits near -2, background near +2 -> any
  // threshold in between is optimal; check classification is perfect.
  std::vector<float> logits;
  std::vector<float> labels;
  std::vector<double> polars;
  core::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const bool bkg = i % 2 == 0;
    logits.push_back(bkg ? 2.0f + static_cast<float>(rng.normal(0, 0.2))
                         : -2.0f + static_cast<float>(rng.normal(0, 0.2)));
    labels.push_back(bkg ? 1.0f : 0.0f);
    polars.push_back(15.0);
  }
  PolarThresholds t;
  t.fit(logits, labels, polars);
  const double thr = t.logit_threshold(15.0);
  EXPECT_GT(thr, -1.0);
  EXPECT_LT(thr, 1.0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const bool flagged = logits[i] >= thr;
    if (flagged == (labels[i] > 0.5f)) ++correct;
  }
  EXPECT_EQ(correct, logits.size());
}

TEST(Thresholds, FitIsPerBin) {
  // Two bins with opposite logit offsets need different thresholds.
  std::vector<float> logits;
  std::vector<float> labels;
  std::vector<double> polars;
  core::Rng rng(2);
  for (int i = 0; i < 400; ++i) {
    const bool bkg = i % 2 == 0;
    const bool low_bin = i < 200;
    const float center = low_bin ? 5.0f : -5.0f;
    logits.push_back(center + (bkg ? 1.0f : -1.0f) +
                     static_cast<float>(rng.normal(0, 0.1)));
    labels.push_back(bkg ? 1.0f : 0.0f);
    polars.push_back(low_bin ? 5.0 : 75.0);
  }
  PolarThresholds t;
  t.fit(logits, labels, polars);
  EXPECT_NEAR(t.logit_threshold(5.0), 5.0, 0.5);
  EXPECT_NEAR(t.logit_threshold(75.0), -5.0, 0.5);
}

TEST(Thresholds, EmptyBinKeepsNeutralDefault) {
  PolarThresholds t;
  t.fit({1.0f}, {1.0f}, {5.0});
  EXPECT_DOUBLE_EQ(t.logit_threshold(85.0), 0.0);
}

TEST(Thresholds, AllOneClassPushesThresholdOutward) {
  // Only GRB samples: the best threshold flags nothing as background.
  std::vector<float> logits{0.0f, 1.0f, 2.0f};
  std::vector<float> labels{0.0f, 0.0f, 0.0f};
  std::vector<double> polars{45.0, 45.0, 45.0};
  PolarThresholds t;
  t.fit(logits, labels, polars);
  EXPECT_GT(t.logit_threshold(45.0), 2.0);
}

TEST(Thresholds, MetadataRoundTrip) {
  PolarThresholds t;
  for (int b = 0; b < PolarThresholds::kNumBins; ++b)
    t.set_logit_threshold(b, 0.1 * b - 0.3);
  const auto meta = t.to_metadata();
  EXPECT_EQ(meta.size(), static_cast<std::size_t>(PolarThresholds::kNumBins));
  const PolarThresholds restored = PolarThresholds::from_metadata(meta);
  for (double angle = 5.0; angle < 90.0; angle += 10.0)
    EXPECT_DOUBLE_EQ(restored.logit_threshold(angle),
                     t.logit_threshold(angle));
}

TEST(Thresholds, FitValidatesSizes) {
  PolarThresholds t;
  EXPECT_THROW(t.fit({1.0f}, {1.0f, 0.0f}, {5.0}), std::invalid_argument);
}

}  // namespace
}  // namespace adapt::pipeline
