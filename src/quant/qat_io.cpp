#include "quant/qat_io.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "nn/activations.hpp"
#include "nn/byte_io.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qat_linear.hpp"

namespace adapt::quant {

namespace {

constexpr char kMagic[4] = {'A', 'D', 'Q', 'T'};
// Version 2 appends a u64 FNV-1a checksum footer (same rationale and
// layout as nn::serialize).  Footerless version-1 files no longer
// load, for the same reason as there.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMinVersion = 2;

enum class Tag : std::uint32_t {
  kQatLinear = 1,
  kFakeQuant = 2,
  kReLU = 3,
};

using namespace nn::byte_io;

}  // namespace

bool save_qat_model(nn::Sequential& model,
                    const nn::Standardizer& standardizer,
                    const std::map<std::string, double>& metadata,
                    const std::string& path) {
  // Serialize into memory first: the checksum footer covers every
  // body byte, so the body must be complete before the digest.
  std::ostringstream os(std::ios::binary);
  os.write(kMagic, sizeof(kMagic));
  write_u32(os, kVersion);

  write_standardizer(os, standardizer);

  write_u32(os, static_cast<std::uint32_t>(model.n_layers()));
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    nn::Layer& layer = model.layer(i);
    if (auto* lin = dynamic_cast<QatLinear*>(&layer)) {
      write_u32(os, static_cast<std::uint32_t>(Tag::kQatLinear));
      write_u32(os, static_cast<std::uint32_t>(lin->in_features()));
      write_u32(os, static_cast<std::uint32_t>(lin->out_features()));
      write_floats(os, lin->weight().value.vec());
      write_floats(os, lin->bias().value.vec());
    } else if (auto* fq = dynamic_cast<FakeQuant*>(&layer)) {
      ADAPT_REQUIRE(fq->observed(), "cannot save uncalibrated FakeQuant");
      write_u32(os, static_cast<std::uint32_t>(Tag::kFakeQuant));
      const QParams p = fq->qparams();
      write_f32(os, p.min_value());
      write_f32(os, p.max_value());
    } else if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
      write_u32(os, static_cast<std::uint32_t>(Tag::kReLU));
    } else {
      return false;
    }
  }

  write_u32(os, static_cast<std::uint32_t>(metadata.size()));
  for (const auto& [key, value] : metadata) {
    write_string(os, key);
    write_f64(os, value);
  }
  if (!os) return false;
  return write_with_footer(os.str(), path);
}

std::optional<SavedQatModel> load_qat_model(const std::string& path) {
  const auto data = read_file(path);
  if (!data) return std::nullopt;
  return load_qat_model_from_bytes(*data);
}

std::optional<SavedQatModel> load_qat_model_from_bytes(
    std::string_view in_bytes) {
  // Rejected files are counted, not thrown: callers fall back to
  // retraining, and the counter names the load path that went bad.
  static core::telemetry::Counter& files_rejected =
      core::telemetry::counter("quant.qat_files_rejected");
  static core::telemetry::Counter& checksum_failures =
      core::telemetry::counter("quant.qat_checksum_failures");

  const auto reject = [&]() -> std::optional<SavedQatModel> {
    files_rejected.add();
    return std::nullopt;
  };
  std::istringstream is(std::ios::binary);
  if (!open_body(in_bytes, {kMagic, sizeof(kMagic)}, kMinVersion, kVersion,
                 checksum_failures, is))
    return reject();

  SavedQatModel out;
  if (!read_standardizer(is, out.standardizer)) return reject();

  std::uint32_t n_layers = 0;
  if (!read_u32(is, n_layers) || n_layers > 1024) return reject();
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    std::uint32_t tag = 0;
    if (!read_u32(is, tag)) return reject();
    switch (static_cast<Tag>(tag)) {
      case Tag::kQatLinear: {
        std::uint32_t in = 0;
        std::uint32_t out_f = 0;
        if (!read_u32(is, in) || !read_u32(is, out_f)) return reject();
        // Validate the claimed shape (non-zero, product consistent
        // with the size-checked payloads) BEFORE constructing the
        // layer, so its size contract never fires on file input.
        if (in == 0 || out_f == 0) return reject();
        std::vector<float> w;
        std::vector<float> b;
        if (!read_floats(is, w) || !read_floats(is, b)) return reject();
        if (w.size() != static_cast<std::size_t>(in) * out_f ||
            b.size() != out_f)
          return reject();
        out.model.add(std::make_unique<QatLinear>(in, out_f, std::move(w),
                                                  std::move(b)));
        break;
      }
      case Tag::kFakeQuant: {
        float lo = 0.0f;
        float hi = 0.0f;
        if (!read_f32(is, lo) || !read_f32(is, hi)) return reject();
        // The range is untrusted input: set_range enforces lo <= hi
        // with an always-on throwing contract, so a corrupt (or
        // fuzzed) file with an inverted or non-finite range must be
        // rejected HERE, not allowed to escape as ContractViolation.
        if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi)
          return reject();
        auto fq = std::make_unique<FakeQuant>();
        fq->set_range(lo, hi);
        out.model.add(std::move(fq));
        break;
      }
      case Tag::kReLU:
        out.model.add(std::make_unique<nn::ReLU>());
        break;
      default:
        return reject();
    }
  }

  std::uint32_t n_meta = 0;
  if (!read_u32(is, n_meta) || n_meta > 4096) return reject();
  for (std::uint32_t i = 0; i < n_meta; ++i) {
    std::string key;
    double value = 0.0;
    if (!read_string(is, key) || !read_f64(is, value)) return reject();
    out.metadata.emplace(std::move(key), value);
  }
  // The metadata block ends the body: a byte after it is corruption.
  if (bytes_left(is) != 0) return reject();
  return out;
}

}  // namespace adapt::quant
