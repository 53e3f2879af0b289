#pragma once

/// \file serialize.hpp
/// Binary (de)serialization of trained models.  The flight software
/// loads models produced on the ground, so the format carries
/// everything inference needs: the layer stack with weights and
/// batchnorm running statistics, the input standardizer, and a small
/// key/value metadata block (e.g. the per-polar-bin classification
/// thresholds of pipeline/thresholds.hpp).
///
/// Format (little-endian):
///   magic "ADNN", version u32
///   standardizer: u32 dim (0 = absent), dim x f32 mean, dim x f32 inv_std
///   u32 n_layers, then per layer:
///     u32 tag (see LayerTag), payload per type
///   u32 n_metadata, then per entry: string key, f64 value
///   u64 FNV-1a checksum of every preceding byte
///
/// The checksum footer exists for the flight link: a model garbled in
/// transit (truncated upload, flipped bits) must be rejected at load,
/// never silently deployed.  Only version 2 loads: footerless
/// version-1 files are rejected, as is any byte between the metadata
/// block and the footer.  Rejected checksums are counted under
/// `nn.model_checksum_failures` on top of `nn.model_files_rejected`.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "nn/data.hpp"
#include "nn/sequential.hpp"

namespace adapt::nn {

struct SavedModel {
  Sequential model;
  Standardizer standardizer;
  std::map<std::string, double> metadata;
};

/// Serialize to `path`.  Returns false on I/O failure.
bool save_model(Sequential& model, const Standardizer& standardizer,
                const std::map<std::string, double>& metadata,
                const std::string& path);

/// Deserialize from `path`.  Returns nullopt on missing/corrupt file
/// (structural damage or a checksum mismatch).
std::optional<SavedModel> load_model(const std::string& path);

/// Parse a serialized model from an in-memory buffer — the actual
/// parser behind load_model, exposed so untrusted inputs can be
/// exercised without touching the filesystem (tests/fuzz).  Every
/// claimed count is validated against the remaining bytes before any
/// allocation; malformed input returns nullopt, never throws.
std::optional<SavedModel> load_model_from_bytes(std::string_view bytes);

/// Digest of every parameter byte of the stack (Linear weights/biases,
/// BatchNorm affine parameters and running statistics), in layer
/// order.  serve::StreamRouter records this as its reference digest
/// and recomputes it on health ticks: any in-memory bit flip (radiation
/// SEU) changes the digest.  Deterministic for identical weights.
std::uint64_t weight_checksum(Sequential& model);

}  // namespace adapt::nn
