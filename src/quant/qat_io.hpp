#pragma once

/// \file qat_io.hpp
/// (De)serialization of calibrated QAT models (the stacks produced by
/// build_qat_model: FakeQuant / QatLinear / ReLU).  Persisting the QAT
/// model rather than the exported integer engine keeps one source of
/// truth: the INT8 engine is always re-exported from the calibrated
/// QAT weights, so the serialized form and the deployed form cannot
/// drift apart.
///
/// Format: magic "ADQT", version, standardizer block, layer list with
/// per-type payloads (QatLinear: dims + weights + bias; FakeQuant:
/// observed range; ReLU: nothing), metadata key/value block, and a u64
/// FNV-1a checksum footer over every preceding byte — the same
/// conventions as nn::serialize.  A checksum mismatch rejects the file
/// (counted under `quant.qat_checksum_failures`), and so do a
/// footerless version-1 file and a byte left after the metadata.

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "nn/data.hpp"
#include "nn/sequential.hpp"

namespace adapt::quant {

struct SavedQatModel {
  nn::Sequential model;
  nn::Standardizer standardizer;
  std::map<std::string, double> metadata;
};

bool save_qat_model(nn::Sequential& model,
                    const nn::Standardizer& standardizer,
                    const std::map<std::string, double>& metadata,
                    const std::string& path);

std::optional<SavedQatModel> load_qat_model(const std::string& path);

/// Parse a serialized QAT model from an in-memory buffer — the actual
/// parser behind load_qat_model, exposed so untrusted inputs can be
/// exercised without touching the filesystem (tests/fuzz).  Every
/// claimed count is validated against the remaining bytes before any
/// allocation; malformed input returns nullopt, never throws.
std::optional<SavedQatModel> load_qat_model_from_bytes(
    std::string_view bytes);

}  // namespace adapt::quant
