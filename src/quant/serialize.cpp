#include "quant/serialize.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "core/checksum.hpp"
#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qat_linear.hpp"

namespace adapt::quant {

namespace {

constexpr std::string_view kMagic{"ADNN", 4};
// Version 2 appends a u64 FNV-1a checksum footer.  Version 1 had no
// footer and no longer loads: accepting it let a corrupt file skip the
// checksum by rewriting its version word.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMaxLayers = 1024;
constexpr std::uint32_t kMaxMetadata = 4096;
constexpr std::uint32_t kMaxKeyBytes = 4096;

enum class LayerTag : std::uint32_t {
  kLinear = 1,
  kBatchNorm1d = 2,
  kReLU = 3,
  kSigmoid = 4,
  kQatLinear = 5,
  kFakeQuant = 6,
};

// --- Writing (host byte order) ----------------------------------------

template <class T>
void put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_raw(std::string& out, const std::vector<float>& v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float));
}

void put_floats(std::string& out, const std::vector<float>& v) {
  put(out, static_cast<std::uint32_t>(v.size()));
  put_raw(out, v);
}

void put_tag(std::string& out, LayerTag tag) {
  put(out, static_cast<std::uint32_t>(tag));
}

/// Tag, dims, weights and bias: the payload of Linear and QatLinear.
template <class Dense>
void put_dense(std::string& out, LayerTag tag, const Dense& layer) {
  put_tag(out, tag);
  put(out, static_cast<std::uint32_t>(layer.in_features()));
  put(out, static_cast<std::uint32_t>(layer.out_features()));
  put_floats(out, layer.weight().value.vec());
  put_floats(out, layer.bias().value.vec());
}

// --- Reading ----------------------------------------------------------

/// Cursor over a file body.  Counts and dimensions in the file are
/// untrusted (same hardening as eval::load_rings): every read checks
/// the bytes left first, so a corrupt count cannot size an allocation
/// the file does not back.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  bool done() const { return rest_.empty(); }

  template <class T>
  bool get(T& v) {
    if (rest_.size() < sizeof(v)) return false;
    std::memcpy(&v, rest_.data(), sizeof(v));
    rest_.remove_prefix(sizeof(v));
    return true;
  }

  /// `n` floats with no count in front of them.
  bool get_raw(std::vector<float>& v, std::uint32_t n) {
    const std::size_t size = std::size_t{n} * sizeof(float);
    if (size > rest_.size()) return false;
    v.resize(n);
    if (n != 0) std::memcpy(v.data(), rest_.data(), size);
    rest_.remove_prefix(size);
    return true;
  }

  bool get_floats(std::vector<float>& v) {
    std::uint32_t n = 0;
    return get(n) && get_raw(v, n);
  }

  bool get_string(std::string& s) {
    std::uint32_t n = 0;
    if (!get(n) || n > kMaxKeyBytes || n > rest_.size()) return false;
    s.assign(rest_.data(), n);
    rest_.remove_prefix(n);
    return true;
  }

 private:
  std::string_view rest_;
};

/// The body of a model file (after magic and version, footer
/// excluded), or nullopt when the header is not this format's or the
/// u64 FNV-1a footer does not match every byte before it.  The footer
/// is verified before a single field is parsed: a garbled upload must
/// not reach the structural parser at all.
std::optional<std::string_view> checked_body(
    std::string_view bytes, core::telemetry::Counter& checksum_failures) {
  constexpr std::size_t kHeader = kMagic.size() + sizeof(kVersion);
  std::uint64_t stored = 0;
  if (bytes.size() < kHeader + sizeof(stored) || !bytes.starts_with(kMagic))
    return std::nullopt;
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kMagic.size(), sizeof(version));
  if (version != kVersion) return std::nullopt;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  bytes.remove_suffix(sizeof(stored));
  if (stored != core::fnv1a64(bytes.data(), bytes.size())) {
    checksum_failures.add();
    return std::nullopt;
  }
  return bytes.substr(kHeader);
}

/// The standardizer, layer stack and metadata of a checksum-verified
/// body; nullopt on any structural fault.
std::optional<SavedModel> parse_body(Reader& in) {
  SavedModel out;
  std::uint32_t dim = 0;
  if (!in.get(dim)) return std::nullopt;
  if (dim != 0) {
    std::vector<float> mean;
    std::vector<float> inv_std;
    if (!in.get_raw(mean, dim) || !in.get_raw(inv_std, dim))
      return std::nullopt;
    out.standardizer.set(std::move(mean), std::move(inv_std));
  }

  // The width the next Linear, QatLinear or BatchNorm1d must take: the
  // standardizer's, then each such layer's output (0 = not known yet).
  // A stack that does not chain would load and then throw on its
  // first forward, so it is rejected here as the corrupt file it is.
  std::uint32_t width = dim;
  const auto chains = [&width](std::uint32_t in_f, std::uint32_t out_f) {
    if (width != 0 && in_f != width) return false;
    width = out_f;
    return true;
  };

  std::uint32_t n_layers = 0;
  if (!in.get(n_layers) || n_layers > kMaxLayers) return std::nullopt;
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    std::uint32_t tag = 0;
    if (!in.get(tag)) return std::nullopt;
    switch (static_cast<LayerTag>(tag)) {
      case LayerTag::kLinear:
      case LayerTag::kQatLinear: {
        std::uint32_t in_f = 0;
        std::uint32_t out_f = 0;
        std::vector<float> w;
        std::vector<float> b;
        // Validate the claimed shape (non-zero, product consistent with
        // the size-checked payloads) BEFORE constructing the layer, so
        // its size contract never fires on file input.
        if (!in.get(in_f) || !in.get(out_f) || in_f == 0 || out_f == 0 ||
            !in.get_floats(w) || !in.get_floats(b) ||
            w.size() != std::size_t{in_f} * out_f || b.size() != out_f ||
            !chains(in_f, out_f))
          return std::nullopt;
        if (static_cast<LayerTag>(tag) == LayerTag::kLinear)
          out.model.add(std::make_unique<nn::Linear>(in_f, out_f,
                                                     std::move(w),
                                                     std::move(b)));
        else
          out.model.add(std::make_unique<QatLinear>(in_f, out_f, std::move(w),
                                                    std::move(b)));
        break;
      }
      case LayerTag::kBatchNorm1d: {
        std::uint32_t features = 0;
        std::vector<float> gamma;
        std::vector<float> beta;
        std::vector<float> mean;
        std::vector<float> var;
        if (!in.get(features) || features == 0 || !in.get_floats(gamma) ||
            !in.get_floats(beta) || !in.get_floats(mean) ||
            !in.get_floats(var) || gamma.size() != features ||
            beta.size() != features || mean.size() != features ||
            var.size() != features || !chains(features, features))
          return std::nullopt;
        // Constructed only after the shape survived the size checks
        // (BatchNorm1d allocates 4 x features floats from this dim).
        auto bn = std::make_unique<nn::BatchNorm1d>(features);
        bn->gamma().value.vec() = std::move(gamma);
        bn->beta().value.vec() = std::move(beta);
        bn->running_mean() = std::move(mean);
        bn->running_var() = std::move(var);
        out.model.add(std::move(bn));
        break;
      }
      case LayerTag::kReLU:
        out.model.add(std::make_unique<nn::ReLU>());
        break;
      case LayerTag::kSigmoid:
        out.model.add(std::make_unique<nn::Sigmoid>());
        break;
      case LayerTag::kFakeQuant: {
        float lo = 0.0f;
        float hi = 0.0f;
        // set_range enforces lo <= hi with an always-on throwing
        // contract, so an inverted or non-finite range must be rejected
        // HERE, not allowed to escape as ContractViolation.
        if (!in.get(lo) || !in.get(hi) || !std::isfinite(lo) ||
            !std::isfinite(hi) || lo > hi)
          return std::nullopt;
        auto fq = std::make_unique<FakeQuant>();
        fq->set_range(lo, hi);
        out.model.add(std::move(fq));
        break;
      }
      default:
        return std::nullopt;
    }
  }

  std::uint32_t n_meta = 0;
  if (!in.get(n_meta) || n_meta > kMaxMetadata) return std::nullopt;
  for (std::uint32_t i = 0; i < n_meta; ++i) {
    std::string key;
    double value = 0.0;
    if (!in.get_string(key) || !in.get(value)) return std::nullopt;
    out.metadata.emplace(std::move(key), value);
  }
  // The metadata block ends the body: a byte after it is corruption.
  if (!in.done()) return std::nullopt;
  return out;
}

}  // namespace

bool save_model(nn::Sequential& model, const nn::Standardizer& standardizer,
                const std::map<std::string, double>& metadata,
                const std::string& path) {
  // Serialize into memory first: the checksum footer covers every
  // body byte, so the body must be complete before the digest.
  std::string body(kMagic);
  put(body, kVersion);

  put(body, static_cast<std::uint32_t>(standardizer.mean().size()));
  if (standardizer.fitted()) {
    put_raw(body, standardizer.mean());
    put_raw(body, standardizer.inv_std());
  }

  put(body, static_cast<std::uint32_t>(model.n_layers()));
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    nn::Layer& layer = model.layer(i);
    if (const auto* lin = dynamic_cast<const nn::Linear*>(&layer)) {
      put_dense(body, LayerTag::kLinear, *lin);
    } else if (const auto* qlin = dynamic_cast<const QatLinear*>(&layer)) {
      put_dense(body, LayerTag::kQatLinear, *qlin);
    } else if (const auto* bn = dynamic_cast<const nn::BatchNorm1d*>(&layer)) {
      put_tag(body, LayerTag::kBatchNorm1d);
      put(body, static_cast<std::uint32_t>(bn->features()));
      put_floats(body, bn->gamma().value.vec());
      put_floats(body, bn->beta().value.vec());
      put_floats(body, bn->running_mean());
      put_floats(body, bn->running_var());
    } else if (dynamic_cast<const nn::ReLU*>(&layer) != nullptr) {
      put_tag(body, LayerTag::kReLU);
    } else if (dynamic_cast<const nn::Sigmoid*>(&layer) != nullptr) {
      put_tag(body, LayerTag::kSigmoid);
    } else if (const auto* fq = dynamic_cast<const FakeQuant*>(&layer)) {
      ADAPT_REQUIRE(fq->observed(), "cannot save uncalibrated FakeQuant");
      const QParams p = fq->qparams();
      put_tag(body, LayerTag::kFakeQuant);
      put(body, p.min_value());
      put(body, p.max_value());
    } else {
      return false;  // Unknown layer type.
    }
  }

  put(body, static_cast<std::uint32_t>(metadata.size()));
  for (const auto& [key, value] : metadata) {
    put(body, static_cast<std::uint32_t>(key.size()));
    body.append(key);
    put(body, value);
  }
  put(body, core::fnv1a64(body.data(), body.size()));

  std::ofstream file(path, std::ios::binary);
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(file);
}

std::optional<SavedModel> load_model(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream raw;
  raw << file.rdbuf();
  return load_model_from_bytes(raw.str());
}

std::optional<SavedModel> load_model_from_bytes(std::string_view bytes) {
  // Rejected files are counted, not thrown: callers fall back to
  // retraining, and the counter names the load path that went bad.
  static core::telemetry::Counter& files_rejected =
      core::telemetry::counter("nn.model_files_rejected");
  static core::telemetry::Counter& checksum_failures =
      core::telemetry::counter("nn.model_checksum_failures");

  std::optional<SavedModel> out;
  if (const auto body = checked_body(bytes, checksum_failures)) {
    Reader in(*body);
    out = parse_body(in);
  }
  if (!out) files_rejected.add();
  return out;
}

std::uint64_t weight_checksum(nn::Sequential& model) {
  core::Fnv1a64 h;
  const auto fold = [&h](const std::vector<float>& v) {
    h.update(v.data(), v.size() * sizeof(float));
  };
  for (std::size_t i = 0; i < model.n_layers(); ++i) {
    nn::Layer& layer = model.layer(i);
    // Fold a type marker per layer so a reordered but byte-identical
    // stack still changes the digest.
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      const std::uint32_t tag = static_cast<std::uint32_t>(LayerTag::kLinear);
      h.update(&tag, sizeof(tag));
      fold(lin->weight().value.vec());
      fold(lin->bias().value.vec());
    } else if (auto* bn = dynamic_cast<nn::BatchNorm1d*>(&layer)) {
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

}  // namespace adapt::quant
