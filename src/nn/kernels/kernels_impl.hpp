#pragma once

/// \file kernels_impl.hpp
/// Internal linkage header between the registry and the per-ISA
/// translation units.  Each SIMD TU is compiled with its own -m flags,
/// so nothing outside src/nn/kernels/ may include this — the public
/// surface is kernels.hpp.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace adapt::nn::kernels::detail {

// The two activation-word loads below have internal linkage (`static`)
// so each kernel TU keeps its own copy, compiled with its own -m flags:
// an inline function shared across the TUs could be emitted once with
// AVX-512 instructions and picked by the linker for the scalar path.

/// Activation bytes [p, p + 4) as the little-endian word the packed
/// panel's 4-byte groups multiply against.
static inline std::int32_t load_word(const std::uint8_t* p) {
  std::int32_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// The last, partial group of a row whose width is not a multiple of
/// kPanelDepth: its n (< 4) bytes, zero-filled rather than read past
/// the row.
static inline std::int32_t load_tail_word(const std::uint8_t* p,
                                          std::size_t n) {
  std::uint8_t bytes[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) bytes[i] = p[i];
  std::int32_t w = 0;
  std::memcpy(&w, bytes, sizeof w);
  return w;
}

/// Tallest micro-tile any variant instantiates: f32_row_block accepts
/// rows in 1..kMaxTileRows, and the SIMD u8i8_gemm variants walk the
/// batch in tiles of at most that many rows.
inline constexpr std::size_t kMaxTileRows = 8;

/// ADAPT_REQUIRE that rows is in 1..kMaxTileRows.  Defined in
/// scalar.cpp so the contract machinery is only ever compiled with
/// baseline flags, never inside a SIMD TU.
void require_tile_rows(std::size_t rows);

/// Calls tile(std::integral_constant<int, R>{}) with R == rows, so each
/// variant instantiates one micro-tile per row count 1..kMaxTileRows
/// and every row of the block is written.  Any other count fails loudly
/// instead of silently computing a single row.
template <typename Tile>
inline void dispatch_tile_rows(std::size_t rows, Tile&& tile) {
  switch (rows) {
    case 1: tile(std::integral_constant<int, 1>{}); return;
    case 2: tile(std::integral_constant<int, 2>{}); return;
    case 3: tile(std::integral_constant<int, 3>{}); return;
    case 4: tile(std::integral_constant<int, 4>{}); return;
    case 5: tile(std::integral_constant<int, 5>{}); return;
    case 6: tile(std::integral_constant<int, 6>{}); return;
    case 7: tile(std::integral_constant<int, 7>{}); return;
    case 8: tile(std::integral_constant<int, 8>{}); return;
    default: require_tile_rows(rows);  // Throws: rows is out of range.
  }
}

void u8i8_gemm_scalar(const std::uint8_t* x, const std::int8_t* panel,
                      std::int32_t* acc, std::size_t rows,
                      std::size_t in_features, std::size_t out_features);
void u8_requant_scalar(const std::int32_t* acc, std::size_t rows,
                       std::size_t out_features, std::int32_t zp_in,
                       const std::int32_t* row_sums, const std::int32_t* bias,
                       bool relu, float s_in, const float* weight_scales,
                       float next_scale, std::int32_t next_zp,
                       std::uint8_t* out);
void f32_row_block_scalar(const float* a, std::size_t lda, const float* b,
                          std::size_t ldb, float* c, std::size_t ldc,
                          std::size_t rows, std::size_t k, std::size_t j0,
                          std::size_t j1);

#ifdef ADAPT_KERNELS_HAVE_AVX2
void u8i8_gemm_avx2(const std::uint8_t* x, const std::int8_t* panel,
                    std::int32_t* acc, std::size_t rows,
                    std::size_t in_features, std::size_t out_features);
void u8_requant_avx2(const std::int32_t* acc, std::size_t rows,
                     std::size_t out_features, std::int32_t zp_in,
                     const std::int32_t* row_sums, const std::int32_t* bias,
                     bool relu, float s_in, const float* weight_scales,
                     float next_scale, std::int32_t next_zp,
                     std::uint8_t* out);
void f32_row_block_avx2(const float* a, std::size_t lda, const float* b,
                        std::size_t ldb, float* c, std::size_t ldc,
                        std::size_t rows, std::size_t k, std::size_t j0,
                        std::size_t j1);
#endif

#ifdef ADAPT_KERNELS_HAVE_AVX512
void u8i8_gemm_avx512(const std::uint8_t* x, const std::int8_t* panel,
                      std::int32_t* acc, std::size_t rows,
                      std::size_t in_features, std::size_t out_features);
void u8_requant_avx512(const std::int32_t* acc, std::size_t rows,
                       std::size_t out_features, std::int32_t zp_in,
                       const std::int32_t* row_sums, const std::int32_t* bias,
                       bool relu, float s_in, const float* weight_scales,
                       float next_scale, std::int32_t next_zp,
                       std::uint8_t* out);
void f32_row_block_avx512(const float* a, std::size_t lda, const float* b,
                          std::size_t ldb, float* c, std::size_t ldc,
                          std::size_t rows, std::size_t k, std::size_t j0,
                          std::size_t j1);
#endif

}  // namespace adapt::nn::kernels::detail
