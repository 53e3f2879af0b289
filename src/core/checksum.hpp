#pragma once

/// \file checksum.hpp
/// FNV-1a content hashing for corruption detection.
///
/// The flight environment exposes every byte of state to radiation
/// single-event upsets: serialized model files can arrive garbled from
/// the ground link, and weights resident in memory can flip bits while
/// the detector runs.  The fault-tolerance layer (the checksum gating
/// of serve::StreamRouter, src/fault) needs one cheap, deterministic
/// fingerprint to answer "are these bytes still the bytes we loaded?"
/// — FNV-1a 64 is that fingerprint.  It is not cryptographic (nothing
/// here defends against an adversary, only against physics); any single
/// flipped bit changes the digest, which is the property the checksum
/// validation relies on.
///
/// The streaming form lets callers fold multiple buffers (layer
/// weights, biases, scales) into one digest without concatenating:
///
///   core::Fnv1a64 h;
///   h.update(weights.data(), weights.size() * sizeof(float));
///   h.update(bias.data(), bias.size() * sizeof(float));
///   const std::uint64_t digest = h.digest();

#include <cstddef>
#include <cstdint>

namespace adapt::core {

/// Streaming FNV-1a 64-bit hasher.
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// Fold `size` bytes at `data` into the digest.
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = hash_;
    for (std::size_t i = 0; i < size; ++i) {
      h ^= static_cast<std::uint64_t>(bytes[i]);
      h *= kPrime;
    }
    hash_ = h;
  }

  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

/// One-shot digest of a single buffer.
inline std::uint64_t fnv1a64(const void* data, std::size_t size) {
  Fnv1a64 h;
  h.update(data, size);
  return h.digest();
}

}  // namespace adapt::core
