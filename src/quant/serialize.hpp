#pragma once

/// \file serialize.hpp
/// Binary (de)serialization of trained models: the one file format for
/// every network the flight software loads from the ground, FP32 stacks
/// (Linear / BatchNorm1d / ReLU / Sigmoid) and calibrated QAT stacks
/// (FakeQuant / QatLinear / ReLU, as build_qat_model lays them out)
/// alike.  The format carries everything inference needs: the layer
/// stack with weights, batchnorm running statistics and activation
/// ranges, the input standardizer, and a small key/value metadata block
/// (e.g. the per-polar-bin classification thresholds of
/// pipeline/thresholds.hpp).  A QAT stack is persisted rather than its
/// exported integer engine, so the INT8 engine is always re-exported
/// from the calibrated weights and the two cannot drift apart.
///
/// It lives in adapt_quant because that is the lowest library that
/// sees both layer families.
///
/// Format (little-endian):
///   magic "ADNN", version u32
///   standardizer: u32 dim (0 = absent), dim x f32 mean, dim x f32 inv_std
///   u32 n_layers, then per layer u32 tag and its payload:
///     1 Linear, 5 QatLinear: u32 in, u32 out, weights, bias
///     2 BatchNorm1d: u32 features, gamma, beta, running mean and var
///     3 ReLU, 4 Sigmoid: nothing
///     6 FakeQuant: f32 lo, f32 hi (the observed range)
///   (a float array is a u32 count followed by that many f32)
///   u32 n_metadata, then per entry: string key, f64 value
///   u64 FNV-1a checksum of every preceding byte
///
/// The checksum footer exists for the flight link: a model garbled in
/// transit (truncated upload, flipped bits) must be rejected at load,
/// never silently deployed.  Only version 2 loads: footerless
/// version-1 files are rejected, as is any byte between the metadata
/// block and the footer, a FakeQuant range that is not finite with
/// lo <= hi, and a stack whose widths do not chain (each Linear,
/// QatLinear or BatchNorm1d must take the width the standardizer or the
/// layer before it gives).  Every rejection is counted under
/// `nn.model_files_rejected`; checksum mismatches also under
/// `nn.model_checksum_failures`.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "nn/data.hpp"
#include "nn/sequential.hpp"

namespace adapt::quant {

struct SavedModel {
  nn::Sequential model;
  nn::Standardizer standardizer;
  std::map<std::string, double> metadata;
};

/// Serialize to `path`.  Returns false on I/O failure or a layer type
/// the format does not carry; an uncalibrated FakeQuant throws.
bool save_model(nn::Sequential& model, const nn::Standardizer& standardizer,
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

/// Digest of every parameter byte of an FP32 stack (Linear
/// weights/biases, BatchNorm affine parameters and running statistics),
/// in layer order.  serve::StreamRouter records this as its reference
/// digest and recomputes it on health ticks: any in-memory bit flip
/// (radiation SEU) changes the digest.  Deterministic for identical
/// weights.
std::uint64_t weight_checksum(nn::Sequential& model);

}  // namespace adapt::quant
