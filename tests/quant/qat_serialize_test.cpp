/// \file qat_serialize_test.cpp
/// Byte-level hardening tests for the model loader on calibrated QAT
/// stacks (FakeQuant / QatLinear / ReLU), built around
/// load_model_from_bytes (the fuzz entry point — see
/// tests/fuzz/fuzz_nn_model.cpp).
///
/// The inverted/non-finite FakeQuant range cases pin a real bug found
/// by the fuzz harness: the loader used to feed the on-disk range
/// straight into FakeQuant::set_range, whose lo <= hi contract is an
/// always-on throwing check — so a two-byte corruption in an otherwise
/// checksum-valid file escaped the "reject, never throw" loader
/// contract as a ContractViolation.  The loader now validates the
/// range itself and rejects.
///
/// The round trip holds a loaded stack to the saved one byte for byte:
/// the loader builds each QatLinear from the file's weights, with no
/// initialization draw in between.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checksum.hpp"
#include "core/telemetry.hpp"
#include "nn/activations.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qat_linear.hpp"
#include "quant/quantized_mlp.hpp"
#include "quant/serialize.hpp"
#include "temp_path.hpp"

namespace adapt::quant {
namespace {

void append_u32(std::string& s, std::uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_f32(std::string& s, float v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// `body` followed by its u64 FNV-1a digest, as save_model signs a
/// file.
std::string signed_file(std::string body) {
  const std::uint64_t digest = core::fnv1a64(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return body;
}

/// A complete version-2 file holding exactly one FakeQuant layer with
/// the given range: magic, version, empty standardizer, one layer,
/// empty metadata, FNV-1a footer.  Mirrors save_model's layout so
/// the tests can plant arbitrary (including invalid) ranges behind a
/// VALID checksum — the corruption must survive the digest gate to
/// reach the range check under test.
std::string fake_quant_file(float lo, float hi) {
  std::string body;
  body.append("ADNN", 4);
  append_u32(body, 2);  // version
  append_u32(body, 0);  // standardizer: not fitted
  append_u32(body, 1);  // n_layers
  append_u32(body, 6);  // LayerTag::kFakeQuant
  append_f32(body, lo);
  append_f32(body, hi);
  append_u32(body, 0);  // n_metadata
  return signed_file(body);
}

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

/// A calibrated two-layer QAT stack (13 -> 24 -> 1) laid out as
/// build_qat_model lays it out, and its bytes as save_model wrote
/// them.  `second_in` other than 24 and a standardizer other than 13
/// wide give a signed file whose widths do not chain.
struct SavedStack {
  nn::Sequential model;
  std::string bytes;
};

SavedStack saved_stack(std::size_t second_in = 24,
                       const nn::Standardizer& standardizer = {}) {
  SavedStack out;
  core::Rng rng(21);
  const auto fake_quant = [](float lo, float hi) {
    auto fq = std::make_unique<FakeQuant>();
    fq->set_range(lo, hi);
    return fq;
  };
  out.model.add(fake_quant(-2.0f, 3.0f));
  out.model.add(std::make_unique<QatLinear>(13, 24, rng));
  out.model.add(std::make_unique<nn::ReLU>());
  out.model.add(fake_quant(0.0f, 4.5f));
  out.model.add(std::make_unique<QatLinear>(second_in, 1, rng));
  const std::string path = test::temp_path("adaptml_qat_bytes_test", ".adnn");
  EXPECT_TRUE(
      save_model(out.model, standardizer, {{"config_sig", 7.0}}, path));
  std::ifstream is(path, std::ios::binary);
  out.bytes.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return out;
}

TEST(QatIoBytesTest, RoundTripKeepsEveryParameterBitForBit) {
  SavedStack saved = saved_stack();
  nn::Sequential& model = saved.model;
  auto loaded = load_model_from_bytes(saved.bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->metadata.at("config_sig"), 7.0);
  ASSERT_EQ(loaded->model.n_layers(), model.n_layers());
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    ASSERT_EQ(loaded->model.layer(i).type(), model.layer(i).type());
    if (auto* a = dynamic_cast<QatLinear*>(&model.layer(i))) {
      const auto& b = dynamic_cast<const QatLinear&>(loaded->model.layer(i));
      EXPECT_EQ(b.weight().value.rows(), a->out_features()) << "layer " << i;
      EXPECT_EQ(b.weight().value.cols(), a->in_features()) << "layer " << i;
      EXPECT_EQ(bits(b.weight().value.vec()), bits(a->weight().value.vec()))
          << "layer " << i;
      EXPECT_EQ(bits(b.bias().value.vec()), bits(a->bias().value.vec()))
          << "layer " << i;
    } else if (auto* a = dynamic_cast<FakeQuant*>(&model.layer(i))) {
      const auto& b = dynamic_cast<const FakeQuant&>(loaded->model.layer(i));
      EXPECT_EQ(b.qparams().min_value(), a->qparams().min_value());
      EXPECT_EQ(b.qparams().max_value(), a->qparams().max_value());
    }
  }
  EXPECT_EQ(export_quantized(loaded->model).weight_checksum(),
            export_quantized(model).weight_checksum());
}

/// `width` standardizer features, all mean 0 and inverse spread 1.
nn::Standardizer standardizer(std::size_t width) {
  nn::Standardizer s;
  s.set(std::vector<float>(width, 0.0f), std::vector<float>(width, 1.0f));
  return s;
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

TEST(QatIoBytesTest, WidthMismatchedStackRejected) {
  // QatLinear(13 -> 24) feeding QatLinear(20 -> 1) is signed and every
  // layer is well formed, but its first forward would throw.
  expect_rejected_and_counted(saved_stack(20).bytes);
}

TEST(QatIoBytesTest, StandardizerWidthMismatchRejected) {
  ASSERT_TRUE(load_model_from_bytes(saved_stack(24, standardizer(13)).bytes)
                  .has_value());
  expect_rejected_and_counted(saved_stack(24, standardizer(12)).bytes);
  expect_rejected_and_counted(saved_stack(24, standardizer(14)).bytes);
}

TEST(QatIoBytesTest, FooterlessVersionDoesNotSkipTheChecksum) {
  std::string bytes = saved_stack().bytes;
  ASSERT_TRUE(load_model_from_bytes(bytes).has_value());
  ASSERT_GT(bytes.size(), 200u);
  bytes[200] = static_cast<char>(bytes[200] ^ 0x01);
  EXPECT_FALSE(load_model_from_bytes(bytes).has_value());
  // Claiming the footerless version 1 must not turn the footer into
  // ignored trailing bytes and let the flipped bit through.
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  EXPECT_FALSE(load_model_from_bytes(bytes).has_value());
}

TEST(QatIoBytesTest, ResignedTrailingByteRejected) {
  const std::string bytes = saved_stack().bytes;
  const std::string body =
      bytes.substr(0, bytes.size() - sizeof(std::uint64_t));
  // Re-signing the untouched body reproduces the file, so the helper
  // signs exactly as save_model does.
  ASSERT_EQ(signed_file(body), bytes);
  EXPECT_FALSE(
      load_model_from_bytes(signed_file(body + '\0')).has_value());
}

TEST(QatIoBytesTest, WellFormedFakeQuantLoads) {
  const std::string bytes = fake_quant_file(-1.5f, 2.5f);
  const auto loaded = load_model_from_bytes(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->model.n_layers(), 1u);
  EXPECT_FALSE(loaded->standardizer.fitted());
  EXPECT_TRUE(loaded->metadata.empty());
}

TEST(QatIoBytesTest, DegenerateEqualRangeLoads) {
  // lo == hi is degenerate but satisfies the lo <= hi contract; the
  // loader must not be stricter than set_range itself.
  EXPECT_TRUE(load_model_from_bytes(fake_quant_file(0.0f, 0.0f))
                  .has_value());
}

TEST(QatIoBytesTest, InvertedRangeRejectedNotThrown) {
  const std::string bytes = fake_quant_file(2.5f, -1.5f);
  std::optional<SavedModel> loaded;
  EXPECT_NO_THROW(loaded = load_model_from_bytes(bytes));
  EXPECT_FALSE(loaded.has_value());
}

TEST(QatIoBytesTest, NonFiniteRangeRejectedNotThrown) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& [lo, hi] : {std::pair{nan, 1.0f}, std::pair{0.0f, nan},
                               std::pair{-inf, 1.0f}, std::pair{0.0f, inf}}) {
    const std::string bytes = fake_quant_file(lo, hi);
    std::optional<SavedModel> loaded;
    EXPECT_NO_THROW(loaded = load_model_from_bytes(bytes));
    EXPECT_FALSE(loaded.has_value()) << "lo=" << lo << " hi=" << hi;
  }
}

TEST(QatIoBytesTest, CorruptedChecksumRejected) {
  std::string bytes = fake_quant_file(-1.0f, 1.0f);
  bytes[bytes.size() - 1] ^= 0x5a;  // flip a footer byte
  EXPECT_FALSE(load_model_from_bytes(bytes).has_value());
}

TEST(QatIoBytesTest, TruncatedFileRejected) {
  const std::string bytes = fake_quant_file(-1.0f, 1.0f);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    // Every prefix either loses body bytes (checksum mismatch) or the
    // footer itself (too short) — all must reject without throwing.
    std::optional<SavedModel> loaded;
    EXPECT_NO_THROW(loaded =
                        load_model_from_bytes(bytes.substr(0, len)));
    EXPECT_FALSE(loaded.has_value()) << "prefix length " << len;
  }
}

}  // namespace
}  // namespace adapt::quant
