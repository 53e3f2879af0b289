#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <unistd.h>
#include <memory>
#include <optional>

#include "core/checksum.hpp"
#include "core/telemetry.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "quant/serialize.hpp"
#include "temp_path.hpp"

namespace adapt::nn {
namespace {

using quant::load_model;
using quant::load_model_from_bytes;
using quant::save_model;
using quant::SavedModel;
using quant::weight_checksum;

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

/// The bit patterns of `v`: equal patterns mean the same bytes, which
/// float == would not show for -0.0 / +0.0 or NaN payloads.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

/// Every Linear weight and bias and every BatchNorm parameter and
/// running statistic of `loaded` is the same bytes as in `saved`.
void expect_same_parameters(Sequential& saved, Sequential& loaded) {
  ASSERT_EQ(saved.n_layers(), loaded.n_layers());
  for (std::size_t i = 0; i < saved.n_layers(); ++i) {
    ASSERT_EQ(saved.layer(i).type(), loaded.layer(i).type()) << "layer " << i;
    if (auto* a = dynamic_cast<Linear*>(&saved.layer(i))) {
      auto& b = dynamic_cast<Linear&>(loaded.layer(i));
      EXPECT_EQ(b.in_features(), a->in_features()) << "layer " << i;
      EXPECT_EQ(b.weight().value.rows(), a->out_features()) << "layer " << i;
      EXPECT_EQ(b.weight().value.cols(), a->in_features()) << "layer " << i;
      EXPECT_EQ(bits(b.weight().value.vec()), bits(a->weight().value.vec()))
          << "layer " << i;
      EXPECT_EQ(bits(b.bias().value.vec()), bits(a->bias().value.vec()))
          << "layer " << i;
    } else if (auto* a = dynamic_cast<BatchNorm1d*>(&saved.layer(i))) {
      auto& b = dynamic_cast<BatchNorm1d&>(loaded.layer(i));
      EXPECT_EQ(bits(b.gamma().value.vec()), bits(a->gamma().value.vec()))
          << "layer " << i;
      EXPECT_EQ(bits(b.beta().value.vec()), bits(a->beta().value.vec()))
          << "layer " << i;
      EXPECT_EQ(bits(b.running_mean()), bits(a->running_mean()))
          << "layer " << i;
      EXPECT_EQ(bits(b.running_var()), bits(a->running_var()))
          << "layer " << i;
    }
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// `body` followed by its u64 FNV-1a digest, as save_model signs a file.
std::string signed_file(std::string body) {
  const std::uint64_t digest = core::fnv1a64(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return body;
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

  // The loader builds each layer from the file's weights: every
  // parameter and statistic comes back as the same bytes.
  expect_same_parameters(model, loaded->model);
  EXPECT_EQ(weight_checksum(loaded->model), weight_checksum(model));
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

TEST_F(SerializeTest, FooterlessVersionDoesNotSkipTheChecksum) {
  core::Rng rng(11);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  ASSERT_TRUE(save_model(model, {}, {{"uses_polar", 1.0}}, path_));
  std::string bytes = read_bytes(path_);
  ASSERT_GT(bytes.size(), 200u);
  ASSERT_TRUE(load_model_from_bytes(bytes).has_value());

  bytes[200] = static_cast<char>(bytes[200] ^ 0x01);
  EXPECT_FALSE(load_model_from_bytes(bytes).has_value());
  // Claiming the footerless version 1 must not turn the footer into
  // ignored trailing bytes and let the flipped bit through.
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  EXPECT_FALSE(load_model_from_bytes(bytes).has_value());
}

TEST_F(SerializeTest, ResignedTrailingByteRejected) {
  core::Rng rng(12);
  Sequential model = build_mlp(deta_net_spec(13), rng);
  ASSERT_TRUE(save_model(model, {}, {{"uses_polar", 1.0}}, path_));
  const std::string bytes = read_bytes(path_);
  const std::string body = bytes.substr(0, bytes.size() - sizeof(std::uint64_t));
  // Re-signing the untouched body reproduces the file, so the helper
  // signs exactly as save_model does.
  ASSERT_EQ(signed_file(body), bytes);
  EXPECT_FALSE(load_model_from_bytes(signed_file(body + '\0')).has_value());
}

/// Loads `bytes` and expects a rejection counted once under
/// nn.model_files_rejected.
void expect_rejected_and_counted(const std::string& bytes) {
  core::telemetry::set_enabled(true);
  const core::telemetry::Counter& rejected =
      core::telemetry::counter("nn.model_files_rejected");
  const std::uint64_t before = rejected.value();
  std::optional<SavedModel> loaded;
  EXPECT_NO_THROW(loaded = load_model_from_bytes(bytes));
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(rejected.value() - before, 1u);
  core::telemetry::set_enabled(false);
}

/// The bytes save_model writes for Linear(4 -> 8), then `second` (a
/// BatchNorm1d or a Linear), then ReLU and Linear(8 -> 1), under
/// `standardizer`.
std::string stack_bytes(std::unique_ptr<Layer> second,
                        const Standardizer& standardizer,
                        const std::string& path) {
  core::Rng rng(13);
  Sequential model;
  model.add(std::make_unique<Linear>(4, 8, rng));
  model.add(std::move(second));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(8, 1, rng));
  EXPECT_TRUE(save_model(model, standardizer, {}, path));
  return read_bytes(path);
}

TEST_F(SerializeTest, WidthMismatchedStackRejected) {
  // Each stack is signed and every layer is well formed, but its first
  // forward would throw on the width mismatch.
  core::Rng rng(14);
  ASSERT_TRUE(load_model_from_bytes(
                  stack_bytes(std::make_unique<BatchNorm1d>(8), {}, path_))
                  .has_value());
  expect_rejected_and_counted(
      stack_bytes(std::make_unique<BatchNorm1d>(6), {}, path_));
  expect_rejected_and_counted(
      stack_bytes(std::make_unique<Linear>(4, 8, rng), {}, path_));
}

TEST_F(SerializeTest, StandardizerWidthMismatchRejected) {
  const auto standardizer = [](std::size_t width) {
    Standardizer s;
    s.set(std::vector<float>(width, 0.0f), std::vector<float>(width, 1.0f));
    return s;
  };
  ASSERT_TRUE(load_model_from_bytes(stack_bytes(std::make_unique<ReLU>(),
                                                standardizer(4), path_))
                  .has_value());
  expect_rejected_and_counted(
      stack_bytes(std::make_unique<ReLU>(), standardizer(3), path_));
  expect_rejected_and_counted(
      stack_bytes(std::make_unique<ReLU>(), standardizer(5), path_));
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
