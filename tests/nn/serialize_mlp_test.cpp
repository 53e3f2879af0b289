#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <memory>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "temp_path.hpp"

namespace adapt::nn {
namespace {

TEST(MlpBuilder, BackgroundSpecMatchesPaper) {
  // "four FC layers in total ... maximum width of 256 in its first FC
  // layer, with subsequent layers gradually decreasing in width."
  const MlpSpec spec = background_net_spec(13);
  EXPECT_EQ(spec.n_fc_layers(), 4u);
  ASSERT_EQ(spec.widths.size(), 3u);
  EXPECT_EQ(spec.widths[0], 256u);
  EXPECT_GT(spec.widths[0], spec.widths[1]);
  EXPECT_GT(spec.widths[1], spec.widths[2]);
}

TEST(MlpBuilder, DetaSpecMatchesPaper) {
  // "maximum width of 16 in the middle and shorter widths at the
  // beginning and end."
  const MlpSpec spec = deta_net_spec(13);
  EXPECT_EQ(spec.n_fc_layers(), 4u);
  ASSERT_EQ(spec.widths.size(), 3u);
  EXPECT_EQ(spec.widths[1], 16u);
  EXPECT_LT(spec.widths[0], spec.widths[1]);
  EXPECT_LT(spec.widths[2], spec.widths[1]);
}

TEST(MlpBuilder, StandardBlockOrderIsBnFcRelu) {
  core::Rng rng(1);
  Sequential model = build_mlp(background_net_spec(13, false), rng);
  // Blocks: [BN, FC, ReLU] x3 + final FC = 10 layers.
  ASSERT_EQ(model.n_layers(), 10u);
  EXPECT_EQ(model.layer(0).type(), "batchnorm1d");
  EXPECT_EQ(model.layer(1).type(), "linear");
  EXPECT_EQ(model.layer(2).type(), "relu");
  EXPECT_EQ(model.layer(9).type(), "linear");
}

TEST(MlpBuilder, SwappedBlockOrderIsFcBnRelu) {
  core::Rng rng(2);
  Sequential model = build_mlp(background_net_spec(13, true), rng);
  ASSERT_EQ(model.n_layers(), 10u);
  EXPECT_EQ(model.layer(0).type(), "linear");
  EXPECT_EQ(model.layer(1).type(), "batchnorm1d");
  EXPECT_EQ(model.layer(2).type(), "relu");
}

TEST(MlpBuilder, OutputIsSingleValue) {
  core::Rng rng(3);
  for (const auto& spec :
       {background_net_spec(13), deta_net_spec(13), background_net_spec(12)}) {
    Sequential model = build_mlp(spec, rng);
    Tensor x(4, spec.input_dim, 0.5f);
    const Tensor y = model.forward(x, false);
    EXPECT_EQ(y.rows(), 4u);
    EXPECT_EQ(y.cols(), 1u);
  }
}

TEST(MlpBuilder, RejectsEmptySpecs) {
  core::Rng rng(4);
  MlpSpec spec;
  spec.widths = {};
  EXPECT_THROW(build_mlp(spec, rng), std::invalid_argument);
  spec.widths = {8};
  spec.input_dim = 0;
  EXPECT_THROW(build_mlp(spec, rng), std::invalid_argument);
}

class SerializeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  const std::string path_ = test::temp_path("adaptml_serialize_test", ".adnn");
};

TEST_F(SerializeTest, RoundTripPreservesOutputs) {
  core::Rng rng(5);
  Sequential model = build_mlp(background_net_spec(13), rng);
  // Mutate batchnorm running stats so the round trip covers them.
  Tensor calib(32, 13);
  for (auto& v : calib.vec()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  (void)model.forward(calib, true);

  Standardizer std_;
  std_.fit(calib);
  std::map<std::string, double> meta{{"polar_thr_0", -0.25}, {"k", 3.0}};
  ASSERT_TRUE(save_model(model, std_, meta, path_));

  auto loaded = load_model(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->metadata.at("k"), 3.0);
  EXPECT_EQ(loaded->metadata.at("polar_thr_0"), -0.25);
  ASSERT_TRUE(loaded->standardizer.fitted());

  Tensor x(8, 13);
  core::Rng xr(6);
  for (auto& v : x.vec()) v = static_cast<float>(xr.uniform(-1.0, 1.0));
  const Tensor y0 = model.forward(x, false);
  const Tensor y1 = loaded->model.forward(x, false);
  ASSERT_EQ(y0.size(), y1.size());
  for (std::size_t i = 0; i < y0.size(); ++i)
    EXPECT_FLOAT_EQ(y0.vec()[i], y1.vec()[i]);

  const Tensor s0 = std_.transform(x);
  const Tensor s1 = loaded->standardizer.transform(x);
  for (std::size_t i = 0; i < s0.size(); ++i)
    EXPECT_FLOAT_EQ(s0.vec()[i], s1.vec()[i]);
}

TEST_F(SerializeTest, RoundTripWithoutStandardizer) {
  core::Rng rng(7);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  Standardizer unfitted;
  ASSERT_TRUE(save_model(model, unfitted, {}, path_));
  auto loaded = load_model(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->standardizer.fitted());
  EXPECT_TRUE(loaded->metadata.empty());
}

TEST_F(SerializeTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_model(test::temp_path("definitely_missing_file", ".adnn"))
                   .has_value());
}

TEST_F(SerializeTest, CorruptMagicRejected) {
  core::Rng rng(8);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  ASSERT_TRUE(save_model(model, {}, {}, path_));
  // Corrupt the first byte.
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_model(path_).has_value());
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  core::Rng rng(9);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  ASSERT_TRUE(save_model(model, {}, {}, path_));
  // Truncate to half size.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(load_model(path_).has_value());
}

TEST_F(SerializeTest, SigmoidLayerRoundTrips) {
  core::Rng rng(10);
  Sequential model;
  model.add(std::make_unique<Linear>(3, 2, rng));
  model.add(std::make_unique<Sigmoid>());
  ASSERT_TRUE(save_model(model, {}, {}, path_));
  auto loaded = load_model(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->model.n_layers(), 2u);
  EXPECT_EQ(loaded->model.layer(1).type(), "sigmoid");
}

}  // namespace
}  // namespace adapt::nn
