#include "nn/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "quant/qparams.hpp"

namespace adapt::nn::kernels {
namespace {

/// Every variant the host can actually run, scalar included.
std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Uniform integer in [lo, hi] (Rng only exposes uniform_index).
std::int32_t int_in(core::Rng& rng, std::int32_t lo, std::int32_t hi) {
  return lo + static_cast<std::int32_t>(rng.uniform_index(
                  static_cast<std::uint64_t>(hi - lo) + 1));
}

std::vector<std::uint8_t> random_u8(std::size_t n, core::Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::uint8_t>(int_in(rng, 0, 255));
  return v;
}

std::vector<std::int8_t> random_s8(std::size_t n, core::Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int8_t>(int_in(rng, -128, 127));
  return v;
}

/// Shapes chosen to cover remainder tails in every variant: odd
/// in/out_features, in_features % 16 and % 64 != 0 (the AVX2 / AVX-512
/// vector widths), sub-vector widths, and the production layer shapes.
struct GemmShape {
  std::size_t in, out;
};

const std::vector<GemmShape>& gemm_shapes() {
  static const std::vector<GemmShape> s = {
      {1, 1},   {3, 5},    {13, 256}, {16, 4},  {31, 7},
      {33, 3},  {64, 64},  {65, 4},   {100, 17}, {256, 128},
  };
  return s;
}

const std::vector<std::size_t>& batch_sizes() {
  static const std::vector<std::size_t> b = {1, 3, 64};
  return b;
}

TEST(U8I8GemmKernels, AllVariantsMatchScalarExactly) {
  core::Rng rng(2024);
  const KernelSet& ref = kernel_set(Isa::kScalar);
  for (const GemmShape& shape : gemm_shapes()) {
    for (const std::size_t rows : batch_sizes()) {
      const auto x = random_u8(rows * shape.in, rng);
      const auto w = random_s8(shape.out * shape.in, rng);
      std::vector<std::int32_t> want(rows * shape.out, 0);
      ref.u8i8_gemm(x.data(), w.data(), want.data(), rows, shape.in,
                    shape.out);
      for (const Isa isa : supported_isas()) {
        if (isa == Isa::kScalar) continue;
        std::vector<std::int32_t> got(rows * shape.out, -1);
        kernel_set(isa).u8i8_gemm(x.data(), w.data(), got.data(), rows,
                                  shape.in, shape.out);
        for (std::size_t i = 0; i < want.size(); ++i)
          ASSERT_EQ(got[i], want[i])
              << kernel_set(isa).name << " in=" << shape.in
              << " out=" << shape.out << " rows=" << rows << " idx=" << i;
      }
    }
  }
}

TEST(U8I8GemmKernels, ExtremeValuesDoNotSaturate) {
  // All-255 activations against all-(-128) weights is the most
  // negative possible accumulation — the case the saturating
  // maddubs/VPDPBUSDS instructions would silently clip.
  const std::size_t in = 256, out = 4, rows = 2;
  const std::vector<std::uint8_t> x(rows * in, 255);
  const std::vector<std::int8_t> w(out * in, -128);
  const std::int32_t expected = -128 * 255 * static_cast<std::int32_t>(in);
  for (const Isa isa : supported_isas()) {
    std::vector<std::int32_t> acc(rows * out, 0);
    kernel_set(isa).u8i8_gemm(x.data(), w.data(), acc.data(), rows, in, out);
    for (const std::int32_t a : acc)
      ASSERT_EQ(a, expected) << kernel_set(isa).name;
  }
}

TEST(U8RequantKernels, AllVariantsMatchScalarExactly) {
  core::Rng rng(77);
  for (const GemmShape& shape : gemm_shapes()) {
    for (const std::size_t rows : batch_sizes()) {
      for (const bool relu : {false, true}) {
        const std::size_t n = rows * shape.out;
        std::vector<std::int32_t> acc(n);
        for (auto& a : acc)
          a = int_in(rng, -2000000, 2000000);
        std::vector<std::int32_t> row_sums(shape.out);
        for (auto& s : row_sums)
          s = int_in(rng, -4000, 4000);
        std::vector<std::int32_t> bias(shape.out);
        for (auto& b : bias)
          b = int_in(rng, -50000, 50000);
        std::vector<float> ws(shape.out);
        for (auto& s : ws)
          s = static_cast<float>(rng.uniform(1e-4, 2e-2));
        const std::int32_t zp_in =
            int_in(rng, 0, 255);
        const auto s_in = static_cast<float>(rng.uniform(1e-3, 5e-2));
        const auto next_scale = static_cast<float>(rng.uniform(1e-3, 5e-2));
        const std::int32_t next_zp =
            int_in(rng, 0, 255);

        std::vector<std::uint8_t> want(n, 0);
        kernel_set(Isa::kScalar)
            .u8_requant(acc.data(), rows, shape.out, zp_in, row_sums.data(),
                        bias.data(), relu, s_in, ws.data(), next_scale,
                        next_zp, want.data());
        for (const Isa isa : supported_isas()) {
          if (isa == Isa::kScalar) continue;
          std::vector<std::uint8_t> got(n, 1);
          kernel_set(isa).u8_requant(acc.data(), rows, shape.out, zp_in,
                                     row_sums.data(), bias.data(), relu, s_in,
                                     ws.data(), next_scale, next_zp,
                                     got.data());
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], want[i])
                << kernel_set(isa).name << " out=" << shape.out
                << " rows=" << rows << " relu=" << relu << " idx=" << i;
        }
      }
    }
  }
}

TEST(U8RequantKernels, ScalarMatchesQParamsQuantizeDefinition) {
  // The kernel IS the layer epilogue: a = acc - zp*row_sum + bias,
  // optional ReLU, real = float(a) * s_in * ws, then
  // QParams{next_scale, next_zp}.quantize(real).  Pin the scalar
  // reference to that definition so the variant-equality test above
  // transitively pins every variant to it.
  core::Rng rng(31);
  const std::size_t out = 33, rows = 5;
  std::vector<std::int32_t> acc(rows * out);
  for (auto& a : acc)
    a = int_in(rng, -500000, 500000);
  std::vector<std::int32_t> row_sums(out), bias(out);
  std::vector<float> ws(out);
  for (std::size_t i = 0; i < out; ++i) {
    row_sums[i] = int_in(rng, -3000, 3000);
    bias[i] = int_in(rng, -20000, 20000);
    ws[i] = static_cast<float>(rng.uniform(1e-4, 1e-2));
  }
  const std::int32_t zp_in = 131;
  const float s_in = 0.0173f;
  const quant::QParams next{0.0211f, 97};

  std::vector<std::uint8_t> got(rows * out, 0);
  kernel_set(Isa::kScalar)
      .u8_requant(acc.data(), rows, out, zp_in, row_sums.data(), bias.data(),
                  /*relu=*/true, s_in, ws.data(), next.scale, next.zero_point,
                  got.data());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t oc = 0; oc < out; ++oc) {
      std::int32_t a = acc[r * out + oc] - zp_in * row_sums[oc] + bias[oc];
      if (a < 0) a = 0;
      const float real = static_cast<float>(a) * s_in * ws[oc];
      ASSERT_EQ(static_cast<std::int32_t>(got[r * out + oc]),
                next.quantize(real))
          << "r=" << r << " oc=" << oc;
    }
  }
}

TEST(U8RequantKernels, SaturatedAndExtremeAccumulators) {
  // Accumulators big enough to push |real / next_scale| far past the
  // ±512 rounding saturation: every variant must clamp to the same
  // endpoint byte.
  const std::size_t out = 17, rows = 3;
  std::vector<std::int32_t> acc(rows * out);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (i % 4) {
      case 0: acc[i] = std::numeric_limits<std::int32_t>::max(); break;
      case 1: acc[i] = std::numeric_limits<std::int32_t>::min() / 2; break;
      case 2: acc[i] = -1; break;
      default: acc[i] = 0; break;
    }
  }
  const std::vector<std::int32_t> row_sums(out, 0);
  const std::vector<std::int32_t> bias(out, 0);
  const std::vector<float> ws(out, 1.0f);
  std::vector<std::uint8_t> want(rows * out, 0);
  kernel_set(Isa::kScalar)
      .u8_requant(acc.data(), rows, out, 0, row_sums.data(), bias.data(),
                  /*relu=*/false, 1.0f, ws.data(), 0.01f, 128, want.data());
  for (const Isa isa : supported_isas()) {
    if (isa == Isa::kScalar) continue;
    std::vector<std::uint8_t> got(rows * out, 1);
    kernel_set(isa).u8_requant(acc.data(), rows, out, 0, row_sums.data(),
                               bias.data(), false, 1.0f, ws.data(), 0.01f,
                               128, got.data());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << kernel_set(isa).name << " idx=" << i;
  }
  // Spot-check the endpoints really were exercised.
  EXPECT_EQ(want[0], 255);  // INT32_MAX -> +inf side -> 255.
  EXPECT_EQ(want[1], 0);    // Very negative -> 0.
}

TEST(RoundHalfAwaySaturated, MatchesLroundInRange) {
  // Exhaustive-ish sweep plus the exact half-way and boundary cases.
  const auto check = [](float y) {
    ASSERT_EQ(round_half_away_saturated(y),
              static_cast<std::int32_t>(std::lround(y)))
        << "y=" << y;
  };
  for (int i = -5110; i <= 5110; ++i)
    check(static_cast<float>(i) * 0.1f);
  for (int i = -511; i <= 511; ++i) {
    check(static_cast<float>(i) + 0.5f);
    check(static_cast<float>(i) - 0.5f);
    check(std::nextafterf(static_cast<float>(i) + 0.5f, 1e9f));
    check(std::nextafterf(static_cast<float>(i) + 0.5f, -1e9f));
  }
  // Outside [-512, 512] the helper saturates (callers clamp to a byte
  // anyway); infinities take the saturation arms and NaN is pinned to
  // -512 — deterministic where lround would be undefined.
  EXPECT_EQ(round_half_away_saturated(1e9f), 512);
  EXPECT_EQ(round_half_away_saturated(-1e9f), -512);
  EXPECT_EQ(round_half_away_saturated(std::numeric_limits<float>::infinity()),
            512);
  EXPECT_EQ(
      round_half_away_saturated(-std::numeric_limits<float>::infinity()),
      -512);
  EXPECT_EQ(
      round_half_away_saturated(std::numeric_limits<float>::quiet_NaN()),
      -512);
}

TEST(F32RowBlockKernels, AllVariantsMatchScalarExactly) {
  core::Rng rng(15);
  struct Shape {
    std::size_t rows, k, j;
  };
  // Column counts straddle both vector widths (8 and 16) and their
  // tails; rows covers every micro-tile template instantiation.
  const std::vector<Shape> shapes = {
      {1, 1, 1},  {1, 13, 8},  {2, 7, 9},   {3, 5, 15},
      {4, 16, 16}, {4, 13, 17}, {4, 64, 33}, {2, 100, 7},
  };
  for (const Shape& s : shapes) {
    std::vector<float> a(s.rows * s.k);
    std::vector<float> b(s.k * s.j);
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> want(s.rows * s.j, 0.0f);
    kernel_set(Isa::kScalar)
        .f32_row_block(a.data(), s.k, b.data(), s.j, want.data(), s.j, s.rows,
                       s.k, 0, s.j);
    for (const Isa isa : supported_isas()) {
      if (isa == Isa::kScalar) continue;
      std::vector<float> got(s.rows * s.j, -7.0f);
      kernel_set(isa).f32_row_block(a.data(), s.k, b.data(), s.j, got.data(),
                                    s.j, s.rows, s.k, 0, s.j);
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i])
            << kernel_set(isa).name << " rows=" << s.rows << " k=" << s.k
            << " j=" << s.j << " idx=" << i;
    }
  }
}

/// The reference every variant is pinned to: C[r][j] = sum_t A[r][t] *
/// B[t][j] accumulated in ascending t with separate mul and add.
std::vector<float> naive_row_block(const std::vector<float>& a,
                                   const std::vector<float>& b,
                                   std::size_t rows, std::size_t k,
                                   std::size_t j) {
  std::vector<float> c(rows * j);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t col = 0; col < j; ++col) {
      float acc = 0.0f;
      for (std::size_t t = 0; t < k; ++t) {
        const float prod = a[r * k + t] * b[t * j + col];
        acc += prod;
      }
      c[r * j + col] = acc;
    }
  return c;
}

TEST(F32RowBlockKernels, EveryRowCountAndColumnTailIsWritten) {
  // Rows 1..8 (every micro-tile height) x column counts 1..33: every
  // tail of the 8- and 16-wide vector chunks, alone (1..17) and after
  // full chunks (18..33).  The output starts poisoned, so a row the
  // kernel skips shows up as a mismatch rather than a stale zero.
  core::Rng rng(8);
  for (const std::size_t k : {std::size_t{1}, std::size_t{13}}) {
    for (std::size_t rows = 1; rows <= 8; ++rows) {
      for (std::size_t j = 1; j <= 33; ++j) {
        std::vector<float> a(rows * k);
        std::vector<float> b(k * j);
        for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const std::vector<float> want = naive_row_block(a, b, rows, k, j);
        for (const Isa isa : supported_isas()) {
          std::vector<float> got(rows * j, -7.0f);
          kernel_set(isa).f32_row_block(a.data(), k, b.data(), j, got.data(),
                                        j, rows, k, 0, j);
          for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << kernel_set(isa).name << " rows=" << rows << " k=" << k
                << " j=" << j << " idx=" << i;
        }
      }
    }
  }
}

TEST(F32RowBlockKernels, ColumnRangeOffsetLeavesOtherColumnsAlone) {
  // gemm_rowmajor hands out column tiles [j0, j1) of a wider C: only
  // those columns may be written.
  core::Rng rng(9);
  const std::size_t rows = 8, k = 5, ld = 40, j0 = 3, j1 = 3 + 17 + 16;
  std::vector<float> a(rows * k);
  std::vector<float> b(k * ld);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const std::vector<float> full = naive_row_block(a, b, rows, k, ld);
  for (const Isa isa : supported_isas()) {
    std::vector<float> got(rows * ld, -7.0f);
    kernel_set(isa).f32_row_block(a.data(), k, b.data(), ld, got.data(), ld,
                                  rows, k, j0, j1);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < ld; ++j) {
        const float want = j >= j0 && j < j1 ? full[r * ld + j] : -7.0f;
        ASSERT_EQ(got[r * ld + j], want)
            << kernel_set(isa).name << " r=" << r << " j=" << j;
      }
  }
}

TEST(F32RowBlockKernels, RowCountOutsideTileRangeIsRejected) {
  // A count above the tallest tile must fail loudly, never compute one
  // row and leave the rest of the block unwritten.
  const std::vector<float> a(9 * 4, 1.0f);
  const std::vector<float> b(4 * 8, 1.0f);
  std::vector<float> c(9 * 8, 0.0f);
  for (const Isa isa : supported_isas()) {
    const KernelSet& ks = kernel_set(isa);
    for (const std::size_t rows : {std::size_t{0}, std::size_t{9}})
      EXPECT_THROW(ks.f32_row_block(a.data(), 4, b.data(), 8, c.data(), 8,
                                    rows, 4, 0, 8),
                   std::invalid_argument)
          << ks.name << " rows=" << rows;
  }
}

TEST(KernelRegistry, ParseIsaName) {
  Isa isa = Isa::kAvx512;
  EXPECT_TRUE(parse_isa_name("scalar", &isa));
  EXPECT_EQ(isa, Isa::kScalar);
  EXPECT_TRUE(parse_isa_name("avx2", &isa));
  EXPECT_EQ(isa, Isa::kAvx2);
  EXPECT_TRUE(parse_isa_name("avx512", &isa));
  EXPECT_EQ(isa, Isa::kAvx512);
  EXPECT_FALSE(parse_isa_name("AVX2", &isa));
  EXPECT_FALSE(parse_isa_name("sse", &isa));
  EXPECT_FALSE(parse_isa_name("", &isa));
  EXPECT_FALSE(parse_isa_name(nullptr, &isa));
  EXPECT_FALSE(parse_isa_name("scalar", nullptr));
}

TEST(KernelRegistry, ScalarAlwaysAvailable) {
  EXPECT_TRUE(compiled(Isa::kScalar));
  EXPECT_TRUE(supported(Isa::kScalar));
  const KernelSet& k = kernel_set(Isa::kScalar);
  EXPECT_NE(k.u8i8_gemm, nullptr);
  EXPECT_NE(k.u8_requant, nullptr);
  EXPECT_NE(k.f32_row_block, nullptr);
  EXPECT_NE(k.u8i8_calls, nullptr);
  EXPECT_NE(k.requant_calls, nullptr);
  EXPECT_NE(k.f32_calls, nullptr);
}

TEST(KernelRegistry, SupportedImpliesCompiled) {
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (supported(isa)) {
      EXPECT_TRUE(compiled(isa));
    }
  }
}

TEST(KernelRegistry, ForceIsaRedirectsActiveDispatch) {
  const Isa before = active_isa();
  for (const Isa isa : supported_isas()) {
    force_isa_for_testing(isa);
    EXPECT_EQ(active_isa(), isa);
    EXPECT_EQ(active().isa, isa);
  }
  reset_forced_isa_for_testing();
  EXPECT_EQ(active_isa(), before);
}

}  // namespace
}  // namespace adapt::nn::kernels
