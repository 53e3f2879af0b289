#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD kernels for the two inference hot loops.
///
/// A KernelSet bundles one implementation each of
///   * u8i8_gemm — the INT8 engine's uint8 activation x int8 weight
///     panel product into raw int32 accumulators,
///   * u8_requant — the requantization epilogue turning those
///     accumulators back into the next layer's uint8 activations
///     (zero-point correction, bias, ReLU, rescale, round), and
///   * f32_row_block — one register-blocked row band of the float
///     GEMM all three matmul orientations funnel into.
/// Variants: scalar (always compiled, the reference), AVX2, and
/// AVX-512 (VNNI).  Dispatch happens once per process from cpuid
/// (core::cpu_features) with an `ADAPT_SIMD=scalar|avx2|avx512`
/// override for testing and forced-fallback CI runs.
///
/// Bit-identity is a hard requirement, not a nicety: the fault layer
/// compares inference outputs across runs and replicas to catch SEUs,
/// and the serve layer promises batched == per-ring results exactly.
/// The INT8 kernel is pure int32 accumulation (associative — any
/// lane/block order is exact; the variants use only non-saturating
/// widening multiplies, never the saturating maddubs/VPDPBUSDS forms).
/// The float kernel keeps each output element's additions in ascending
/// k order with separate mul+add (kernel TUs build with
/// -ffp-contract=off so no variant silently fuses), making every
/// variant reproduce the scalar path bit for bit.

#include <cstddef>
#include <cstdint>

#include "core/telemetry.hpp"

namespace adapt::nn::kernels {

enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kIsaCount = 3;

/// acc[r * out_features + oc] = sum_ic x[r * in_features + ic] *
/// w[oc * in_features + ic], as exact int32 (activations uint8,
/// weights int8 row-major [out x in]).  Zero-point folding, bias, and
/// requantization stay with the caller — they are shared scalar code
/// so every variant feeds the identical epilogue.
using U8I8GemmFn = void (*)(const std::uint8_t* x, const std::int8_t* w,
                            std::int32_t* acc, std::size_t rows,
                            std::size_t in_features, std::size_t out_features);

/// Exact drop-in for `static_cast<int32>(std::lround(y))` (round half
/// away from zero) in the requantization epilogue, without the libm
/// call, saturated to ±512.  The saturation is invisible to callers:
/// the result is always added to a zero point in [0, 255] and clamped
/// to [0, 255] (QParams::from_range ENSUREs that zero-point range), so
/// any |rounded| >= 512 clamps to the same endpoint either way.
///
/// Exactness: the float y converts to double losslessly, and for
/// |d| < 512 the ±0.5 add is exact in double (a float-valued d there
/// spans at most 2^-14..2^9; double carries the 0.5 bit), after which
/// truncation toward zero equals half-away rounding.  NaN falls
/// through both comparisons to the -512 arm — the same lane value the
/// vector variants' max_pd/min_pd clamp produces — instead of the
/// undefined float-to-int cast lround would hit.
inline std::int32_t round_half_away_saturated(float y) {
  const double d = static_cast<double>(y);
  if (d >= 0.0) {
    return d >= 512.0 ? 512 : static_cast<std::int32_t>(d + 0.5);
  }
  if (d > -512.0) return static_cast<std::int32_t>(d - 0.5);
  return -512;  // Also the NaN arm: both comparisons above are false.
}

/// Fused epilogue for one accumulator panel from u8i8_gemm:
///   a   = acc[r][oc] - zp_in * row_sums[oc] + bias[oc]
///   a   = relu ? max(a, 0) : a
///   real = float(a) * s_in * weight_scales[oc]
///   out[r][oc] = clamp(round_half_away(real / next_scale) + next_zp,
///                      0, 255)
/// Bit-identical across variants: the int32 math wraps identically,
/// int32→float conversion and float division are IEEE-exact per lane,
/// the two multiplies keep the scalar association order
/// ((float(a) * s_in) * weight_scales[oc]), and the vector rounding
/// sequence (widen to double, clamp ±512, add copysign(0.5), truncate)
/// reproduces round_half_away_saturated exactly — including NaN, which
/// both map to the -512 arm.
using U8RequantFn = void (*)(const std::int32_t* acc, std::size_t rows,
                             std::size_t out_features, std::int32_t zp_in,
                             const std::int32_t* row_sums,
                             const std::int32_t* bias, bool relu, float s_in,
                             const float* weight_scales, float next_scale,
                             std::int32_t next_zp, std::uint8_t* out);

/// One block of 1..8 C rows against columns [j0, j1):
/// C[r][j] = sum_t A[r][t] * B[t][j], overwriting C.  A has row stride
/// lda, B row stride ldb, C row stride ldc.  Accumulation per element
/// is ascending t with unfused mul+add in every variant, so the row
/// count a caller picks never changes a result bit.  Any other row
/// count fails an ADAPT_REQUIRE.
using F32RowBlockFn = void (*)(const float* a, std::size_t lda, const float* b,
                               std::size_t ldb, float* c, std::size_t ldc,
                               std::size_t rows, std::size_t k, std::size_t j0,
                               std::size_t j1);

struct KernelSet {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  U8I8GemmFn u8i8_gemm = nullptr;
  U8RequantFn u8_requant = nullptr;
  F32RowBlockFn f32_row_block = nullptr;
  /// Rows per f32_row_block call that keep this variant's accumulators
  /// in registers: 8 for the AVX2/AVX-512 tiles (8 accumulator
  /// registers out of 16/32), 4 for the scalar tile, whose 8 rows of
  /// two SSE registers each would spill.  Fixed by the ISA; results do
  /// not depend on it.
  std::size_t f32_tile_rows = 4;
  /// nn.kernel.{u8i8_gemm,u8_requant,f32_gemm}.<name>: callers bump
  /// these once per layer/GEMM so --metrics shows which variant
  /// actually served.
  core::telemetry::Counter* u8i8_calls = nullptr;
  core::telemetry::Counter* requant_calls = nullptr;
  core::telemetry::Counter* f32_calls = nullptr;
};

/// Variant compiled into this binary (scalar always; SIMD variants
/// depend on compiler flag support at build time).
bool compiled(Isa isa);

/// Compiled AND runnable on this CPU/OS (cpuid + XCR0).
bool supported(Isa isa);

/// A specific variant's kernel table.  Callers must check supported()
/// first for non-scalar variants; the equivalence tests and benches
/// use this to pit variants against each other in one process.
const KernelSet& kernel_set(Isa isa);

/// The dispatched variant: the best supported ISA, overridden by
/// ADAPT_SIMD=scalar|avx2|avx512 (an unsupported or unparseable
/// request logs a telemetry marker and falls back rather than
/// crashing — tuning knobs must never abort flight code), and by the
/// test-only force below.  Resolved once, then cached.
const KernelSet& active();
Isa active_isa();

/// Name of the `ADAPT_SIMD` value, or Isa count sentinel on parse
/// failure.  Split out so the override grammar is unit-testable
/// without re-execing the process.
bool parse_isa_name(const char* value, Isa* out);

/// Test hooks: force dispatch to a specific (supported) variant, and
/// undo it.  Not for production use — dispatch is meant to be a
/// process-wide one-time decision.
void force_isa_for_testing(Isa isa);
void reset_forced_isa_for_testing();

}  // namespace adapt::nn::kernels
