#include "nn/serialize.hpp"

#include <memory>
#include <sstream>

#include "core/checksum.hpp"
#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/byte_io.hpp"
#include "nn/linear.hpp"

namespace adapt::nn {

namespace {

constexpr char kMagic[4] = {'A', 'D', 'N', 'N'};
// Version 2 appends a u64 FNV-1a checksum footer; version-1 files
// (checked-in model caches predate the footer) still load.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMinVersion = 1;

enum class LayerTag : std::uint32_t {
  kLinear = 1,
  kBatchNorm1d = 2,
  kReLU = 3,
  kSigmoid = 4,
};

using namespace byte_io;

}  // namespace

bool save_model(Sequential& model, const Standardizer& standardizer,
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
    Layer& layer = model.layer(i);
    if (auto* lin = dynamic_cast<Linear*>(&layer)) {
      write_u32(os, static_cast<std::uint32_t>(LayerTag::kLinear));
      write_u32(os, static_cast<std::uint32_t>(lin->in_features()));
      write_u32(os, static_cast<std::uint32_t>(lin->out_features()));
      write_floats(os, lin->weight().value.vec());
      write_floats(os, lin->bias().value.vec());
    } else if (auto* bn = dynamic_cast<BatchNorm1d*>(&layer)) {
      write_u32(os, static_cast<std::uint32_t>(LayerTag::kBatchNorm1d));
      write_u32(os, static_cast<std::uint32_t>(bn->features()));
      write_floats(os, bn->gamma().value.vec());
      write_floats(os, bn->beta().value.vec());
      write_floats(os, bn->running_mean());
      write_floats(os, bn->running_var());
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      write_u32(os, static_cast<std::uint32_t>(LayerTag::kReLU));
    } else if (dynamic_cast<Sigmoid*>(&layer) != nullptr) {
      write_u32(os, static_cast<std::uint32_t>(LayerTag::kSigmoid));
    } else {
      return false;  // Unknown layer type.
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

std::optional<SavedModel> load_model(const std::string& path) {
  const auto data = read_file(path);
  if (!data) return std::nullopt;
  return load_model_from_bytes(*data);
}

std::optional<SavedModel> load_model_from_bytes(std::string_view in_bytes) {
  // Rejected files are counted, not thrown: callers fall back to
  // retraining, and the counter names the load path that went bad.
  static core::telemetry::Counter& files_rejected =
      core::telemetry::counter("nn.model_files_rejected");
  static core::telemetry::Counter& checksum_failures =
      core::telemetry::counter("nn.model_checksum_failures");

  const auto reject = [&]() -> std::optional<SavedModel> {
    files_rejected.add();
    return std::nullopt;
  };
  std::istringstream is(std::ios::binary);
  if (!open_body(in_bytes, {kMagic, sizeof(kMagic)}, kMinVersion, kVersion,
                 checksum_failures, is))
    return reject();

  SavedModel out;
  if (!read_standardizer(is, out.standardizer)) return reject();

  std::uint32_t n_layers = 0;
  if (!read_u32(is, n_layers) || n_layers > 1024) return reject();
  core::Rng dummy_rng(0);  // Weights are overwritten after construction.
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    std::uint32_t tag = 0;
    if (!read_u32(is, tag)) return reject();
    switch (static_cast<LayerTag>(tag)) {
      case LayerTag::kLinear: {
        std::uint32_t in = 0;
        std::uint32_t out_f = 0;
        if (!read_u32(is, in) || !read_u32(is, out_f)) return reject();
        // Validate the claimed shape (non-zero, product consistent with
        // the size-checked payloads) BEFORE constructing the layer —
        // Linear allocates in*out floats from these dims.
        if (in == 0 || out_f == 0) return reject();
        std::vector<float> w;
        std::vector<float> b;
        if (!read_floats(is, w) || !read_floats(is, b)) return reject();
        if (w.size() != static_cast<std::size_t>(in) * out_f ||
            b.size() != out_f)
          return reject();
        auto lin = std::make_unique<Linear>(in, out_f, dummy_rng);
        lin->weight().value.vec() = std::move(w);
        lin->bias().value.vec() = std::move(b);
        out.model.add(std::move(lin));
        break;
      }
      case LayerTag::kBatchNorm1d: {
        std::uint32_t features = 0;
        if (!read_u32(is, features) || features == 0) return reject();
        std::vector<float> gamma;
        std::vector<float> beta;
        std::vector<float> mean;
        std::vector<float> var;
        if (!read_floats(is, gamma) || !read_floats(is, beta) ||
            !read_floats(is, mean) || !read_floats(is, var))
          return reject();
        if (gamma.size() != features || beta.size() != features ||
            mean.size() != features || var.size() != features)
          return reject();
        // Constructed only after the shape survived the size checks
        // (BatchNorm1d allocates 4 x features floats from this dim).
        auto bn = std::make_unique<BatchNorm1d>(features);
        bn->gamma().value.vec() = std::move(gamma);
        bn->beta().value.vec() = std::move(beta);
        bn->running_mean() = std::move(mean);
        bn->running_var() = std::move(var);
        out.model.add(std::move(bn));
        break;
      }
      case LayerTag::kReLU:
        out.model.add(std::make_unique<ReLU>());
        break;
      case LayerTag::kSigmoid:
        out.model.add(std::make_unique<Sigmoid>());
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
  return out;
}

std::uint64_t weight_checksum(Sequential& model) {
  core::Fnv1a64 h;
  const auto fold = [&h](const std::vector<float>& v) {
    h.update(v.data(), v.size() * sizeof(float));
  };
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    Layer& layer = model.layer(i);
    // Fold a type marker per layer so a reordered but byte-identical
    // stack still changes the digest.
    if (auto* lin = dynamic_cast<Linear*>(&layer)) {
      const std::uint32_t tag = static_cast<std::uint32_t>(LayerTag::kLinear);
      h.update(&tag, sizeof(tag));
      fold(lin->weight().value.vec());
      fold(lin->bias().value.vec());
    } else if (auto* bn = dynamic_cast<BatchNorm1d*>(&layer)) {
      const std::uint32_t tag =
          static_cast<std::uint32_t>(LayerTag::kBatchNorm1d);
      h.update(&tag, sizeof(tag));
      fold(bn->gamma().value.vec());
      fold(bn->beta().value.vec());
      fold(bn->running_mean());
      fold(bn->running_var());
    } else {
      const std::uint32_t tag = 0;
      h.update(&tag, sizeof(tag));
    }
  }
  return h.digest();
}

}  // namespace adapt::nn
