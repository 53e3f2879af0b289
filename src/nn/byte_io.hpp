#pragma once

/// \file byte_io.hpp
/// Internal byte-level helpers shared by the two model file formats
/// (nn/serialize.cpp "ADNN" and quant/qat_io.cpp "ADQT"): host-order
/// scalars, length-prefixed float arrays and strings, the standardizer
/// block, and the versioned header with its FNV-1a checksum footer.  Every read that sizes an
/// allocation from a count in the file checks that count against the
/// bytes actually left first.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/checksum.hpp"
#include "core/telemetry.hpp"
#include "nn/data.hpp"

namespace adapt::nn::byte_io {

inline void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void write_f32(std::ostream& os, float v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void write_floats(std::ostream& os, const std::vector<float>& v) {
  write_u32(os, static_cast<std::uint32_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}
inline void write_string(std::ostream& os, const std::string& s) {
  write_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// u32 dim (0 = not fitted), then dim x f32 mean, dim x f32 inv_std.
inline void write_standardizer(std::ostream& os, const Standardizer& s) {
  if (!s.fitted()) {
    write_u32(os, 0);
    return;
  }
  write_u32(os, static_cast<std::uint32_t>(s.mean().size()));
  os.write(reinterpret_cast<const char*>(s.mean().data()),
           static_cast<std::streamsize>(s.mean().size() * sizeof(float)));
  os.write(reinterpret_cast<const char*>(s.inv_std().data()),
           static_cast<std::streamsize>(s.inv_std().size() * sizeof(float)));
}

/// Write `body` and its u64 FNV-1a digest to `path`.  Formats
/// serialize into memory first because the footer covers every body
/// byte.
inline bool write_with_footer(const std::string& body,
                              const std::string& path) {
  const std::uint64_t digest = core::fnv1a64(body.data(), body.size());
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  file.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return static_cast<bool>(file);
}

/// The whole file at `path`; nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream raw;
  raw << file.rdbuf();
  return raw.str();
}

/// Point `is` at the body of a model file: `magic`, a u32 version in
/// [min_version, max_version], the body, and from version 2 on a u64
/// FNV-1a footer over everything before it.  The footer is verified
/// before a single field is parsed (a garbled upload must not reach
/// the structural parser at all); a mismatch also bumps
/// `checksum_failures`.  On success `is` reads the body, footer
/// excluded.
inline bool open_body(std::string_view bytes, std::string_view magic,
                      std::uint32_t min_version, std::uint32_t max_version,
                      core::telemetry::Counter& checksum_failures,
                      std::istringstream& is) {
  const std::size_t header_bytes = magic.size() + sizeof(std::uint32_t);
  if (bytes.size() < header_bytes || bytes.substr(0, magic.size()) != magic)
    return false;
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + magic.size(), sizeof(version));
  if (version < min_version || version > max_version) return false;
  if (version >= 2) {
    std::uint64_t stored = 0;
    if (bytes.size() < header_bytes + sizeof(stored)) return false;
    std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
                sizeof(stored));
    bytes.remove_suffix(sizeof(stored));
    if (stored != core::fnv1a64(bytes.data(), bytes.size())) {
      checksum_failures.add();
      return false;
    }
  }
  is.str(std::string(bytes));
  is.seekg(static_cast<std::streamoff>(header_bytes));
  return true;
}

inline bool read_u32(std::istream& is, std::uint32_t& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}
inline bool read_f32(std::istream& is, float& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}
inline bool read_f64(std::istream& is, double& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}

/// Bytes between the stream's current position and its end.  Header
/// counts and dimensions are untrusted (same hardening as
/// eval::load_rings): every claimed element count is validated against
/// this budget BEFORE any allocation is sized from it, so a corrupt
/// header cannot request gigabytes ahead of the first failed read.
inline std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos < 0) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(pos);
  if (end < pos) return 0;
  return static_cast<std::uint64_t>(end - pos);
}

inline bool read_floats(std::istream& is, std::vector<float>& v) {
  std::uint32_t n = 0;
  if (!read_u32(is, n)) return false;
  if (static_cast<std::uint64_t>(n) * sizeof(float) > bytes_left(is))
    return false;
  v.resize(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  return static_cast<bool>(is);
}
inline bool read_string(std::istream& is, std::string& s,
                        std::uint32_t max_len = 4096) {
  std::uint32_t n = 0;
  if (!read_u32(is, n) || n > max_len || n > bytes_left(is)) return false;
  s.resize(n);
  is.read(s.data(), static_cast<std::streamsize>(n));
  return static_cast<bool>(is);
}

/// Inverse of write_standardizer; a zero dim leaves `s` unfitted.
inline bool read_standardizer(std::istream& is, Standardizer& s) {
  std::uint32_t dim = 0;
  if (!read_u32(is, dim)) return false;
  if (dim == 0) return true;
  if (static_cast<std::uint64_t>(dim) * 2 * sizeof(float) > bytes_left(is))
    return false;
  std::vector<float> mean(dim);
  std::vector<float> inv_std(dim);
  is.read(reinterpret_cast<char*>(mean.data()),
          static_cast<std::streamsize>(dim * sizeof(float)));
  is.read(reinterpret_cast<char*>(inv_std.data()),
          static_cast<std::streamsize>(dim * sizeof(float)));
  if (!is) return false;
  s.set(std::move(mean), std::move(inv_std));
  return true;
}

}  // namespace adapt::nn::byte_io
