#pragma once

/// \file kernels_impl.hpp
/// Internal linkage header between the registry and the per-ISA
/// translation units.  Each SIMD TU is compiled with its own -m flags,
/// so nothing outside src/nn/kernels/ may include this — the public
/// surface is kernels.hpp.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace adapt::nn::kernels::detail {

/// Tallest float micro-tile any variant instantiates: f32_row_block
/// accepts rows in 1..kMaxF32TileRows.
inline constexpr std::size_t kMaxF32TileRows = 8;

/// ADAPT_REQUIRE that rows is in 1..kMaxF32TileRows.  Defined in
/// scalar.cpp so the contract machinery is only ever compiled with
/// baseline flags, never inside a SIMD TU.
void require_f32_rows(std::size_t rows);

/// Calls tile(std::integral_constant<int, R>{}) with R == rows, so each
/// variant instantiates one micro-tile per row count 1..kMaxF32TileRows
/// and every row of the block is written.  Any other count fails loudly
/// instead of silently computing a single row.
template <typename Tile>
inline void dispatch_f32_rows(std::size_t rows, Tile&& tile) {
  switch (rows) {
    case 1: tile(std::integral_constant<int, 1>{}); return;
    case 2: tile(std::integral_constant<int, 2>{}); return;
    case 3: tile(std::integral_constant<int, 3>{}); return;
    case 4: tile(std::integral_constant<int, 4>{}); return;
    case 5: tile(std::integral_constant<int, 5>{}); return;
    case 6: tile(std::integral_constant<int, 6>{}); return;
    case 7: tile(std::integral_constant<int, 7>{}); return;
    case 8: tile(std::integral_constant<int, 8>{}); return;
    default: require_f32_rows(rows);  // Throws: rows is out of range.
  }
}

void u8i8_gemm_scalar(const std::uint8_t* x, const std::int8_t* w,
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
void u8i8_gemm_avx2(const std::uint8_t* x, const std::int8_t* w,
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
void u8i8_gemm_avx512(const std::uint8_t* x, const std::int8_t* w,
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
