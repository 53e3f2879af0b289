#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD kernels for the two inference hot loops.
///
/// A KernelSet bundles one implementation each of
///   * u8i8_gemm — the INT8 engine's uint8 activation x int8 weight
///     product into raw int32 accumulators, reading the weights from
///     the one packed panel layout below,
///   * u8_requant — the requantization epilogue turning those
///     accumulators back into the next layer's uint8 activations
///     (zero-point correction, bias, ReLU, rescale, round), and
///   * f32_row_block — one register-blocked row band of the float
///     GEMM all three matmul orientations funnel into.
/// Variants: scalar (always compiled, the reference), AVX2, and
/// AVX-512 (VNNI).  Dispatch happens once per process from cpuid
/// (core::cpu_features) with an `ADAPT_SIMD=scalar|avx2|avx512`
/// override for testing and forced-fallback CI runs, by the rule every
/// kernel family shares (core/simd_dispatch.hpp).
///
/// Bit-identity is a hard requirement, not a nicety: the fault layer
/// compares inference outputs across runs and replicas to catch SEUs,
/// and the serve layer promises batched == per-ring results exactly.
/// The INT8 kernel is pure int32 accumulation (associative — any
/// lane/block order is exact; the variants use only non-saturating
/// widening multiplies, never the saturating maddubs/VPDPBUSDS forms),
/// and every variant reads the same packed weight bytes.
/// The float kernel keeps each output element's additions in ascending
/// k order with separate mul+add (kernel TUs build with
/// -ffp-contract=off so no variant silently fuses), making every
/// variant reproduce the scalar path bit for bit.

#include <cstddef>
#include <cstdint>

#include "core/simd_dispatch.hpp"
#include "core/telemetry.hpp"

namespace adapt::nn::kernels {

using core::Isa;
using core::kIsaCount;
using core::parse_isa_name;

/// Packed INT8 weight panel: the one layout u8i8_gemm reads.
///
/// The int8 weights W[oc][ic] of an (out x in) layer are stored as
/// ceil(out / 16) column blocks, each made of ceil(in / 4) consecutive
/// 64-byte blocks.  Block (nb, kg) holds 16 output channels x 4 input
/// bytes, channel-major: its byte 4 * c + j is W[16 * nb + c][4 * kg + j].
/// That is the operand VPDPBUSD multiplies against one broadcast
/// 4-byte activation word, so one instruction adds 4 products to each
/// of 16 int32 outputs and no output ever needs a horizontal sum; the
/// AVX2 and scalar variants walk the same bytes.  Channels >= out and
/// inputs >= in are zero bytes, so the padding adds exact zeros
/// whatever activation bytes it meets and never reaches an output.
/// quant::QuantizedMlp packs each layer once at construction and keeps
/// the panel as the only copy of its weights: its checksum digests
/// these bytes (padding included) and its SEU hook flips them, so the
/// bytes verified are the bytes computed with.
inline constexpr std::size_t kPanelChannels = 16;
inline constexpr std::size_t kPanelDepth = 4;
inline constexpr std::size_t kPanelBlockBytes = kPanelChannels * kPanelDepth;

/// 4-byte input groups per column block: ceil(in / 4).
constexpr std::size_t panel_groups(std::size_t in_features) {
  return (in_features + kPanelDepth - 1) / kPanelDepth;
}

/// Panel size in bytes, padding included.
constexpr std::size_t panel_bytes(std::size_t in_features,
                                  std::size_t out_features) {
  return (out_features + kPanelChannels - 1) / kPanelChannels *
         panel_groups(in_features) * kPanelBlockBytes;
}

/// Offset of W[oc][ic] in the panel of a layer with `in_features`
/// inputs.
constexpr std::size_t panel_offset(std::size_t in_features, std::size_t oc,
                                   std::size_t ic) {
  return (oc / kPanelChannels * panel_groups(in_features) +
          ic / kPanelDepth) *
             kPanelBlockBytes +
         oc % kPanelChannels * kPanelDepth + ic % kPanelDepth;
}

/// Writes the panel of row-major weights w (out x in) into
/// panel[0, panel_bytes(in, out)) in one pass in destination order,
/// padding included.
void pack_panel(const std::int8_t* w, std::size_t in_features,
                std::size_t out_features, std::int8_t* panel);

/// Rows the SIMD u8i8_gemm variants compute per register tile (the
/// AVX-512 tile height; the AVX2 tile height divides it).  A caller
/// splitting a batch into row blocks keeps them multiples of it, so
/// only a batch's last block can end in a short tile.  Results never
/// depend on it.
inline constexpr std::size_t kU8I8RowTile = 8;

/// acc[r * out_features + oc] = sum_ic x[r * in_features + ic] *
/// W[oc][ic], as exact int32 (activations uint8 row-major, weights
/// the int8 panel above).  Reads exactly in_features bytes of each
/// activation row.  Zero-point folding, bias, and requantization stay
/// with the caller — they are shared scalar code so every variant
/// feeds the identical epilogue.
using U8I8GemmFn = void (*)(const std::uint8_t* x, const std::int8_t* panel,
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

/// The dispatched variant: core::resolve_isa() over supported() (the
/// best supported ISA, overridden by ADAPT_SIMD=scalar|avx2|avx512;
/// markers `nn.kernel.dispatch.*`), or the test-only force below.
/// Resolved once, then cached.
const KernelSet& active();
Isa active_isa();

/// Test hooks: force dispatch to a specific (supported) variant, and
/// undo it.  Not for production use — dispatch is meant to be a
/// process-wide one-time decision.
void force_isa_for_testing(Isa isa);
void reset_forced_isa_for_testing();

}  // namespace adapt::nn::kernels
