#pragma once

/// \file resign.hpp
/// A model file ends in a u64 FNV-1a footer over every byte before it,
/// so almost every mutated input stops at the checksum and never
/// reaches the structural parser.  The model harness also feeds the
/// parser a copy whose last 8 bytes are re-signed over the rest.

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "core/checksum.hpp"

namespace adapt::fuzz {

/// `bytes` with its last 8 bytes replaced by the FNV-1a digest of the
/// bytes before them; nullopt for inputs under 16 bytes.
inline std::optional<std::string> resigned(std::string_view bytes) {
  constexpr std::size_t kFooter = sizeof(std::uint64_t);
  if (bytes.size() < 2 * kFooter) return std::nullopt;
  std::string out(bytes);
  const std::size_t body = out.size() - kFooter;
  const std::uint64_t digest = core::fnv1a64(out.data(), body);
  std::memcpy(out.data() + body, &digest, kFooter);
  return out;
}

}  // namespace adapt::fuzz
