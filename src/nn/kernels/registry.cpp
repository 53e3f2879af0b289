/// Kernel registry: one-time dispatch from cpuid + ADAPT_SIMD.
///
/// This TU builds with baseline flags only — it never executes a SIMD
/// instruction itself; it just hands out function pointers into the
/// per-ISA TUs that were compiled with their own -m flags.

#include "nn/kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/cpu_features.hpp"
#include "core/require.hpp"
#include "nn/kernels/kernels_impl.hpp"

namespace adapt::nn::kernels {

namespace tm = core::telemetry;

namespace {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: break;
  }
  return "scalar";
}

KernelSet make_set(Isa isa, U8I8GemmFn u8i8, U8RequantFn requant,
                   F32RowBlockFn f32, std::size_t f32_tile_rows) {
  KernelSet k;
  k.isa = isa;
  k.name = isa_name(isa);
  k.u8i8_gemm = u8i8;
  k.u8_requant = requant;
  k.f32_row_block = f32;
  k.f32_tile_rows = f32_tile_rows;
  k.u8i8_calls =
      &tm::counter(std::string("nn.kernel.u8i8_gemm.") + k.name);
  k.requant_calls =
      &tm::counter(std::string("nn.kernel.u8_requant.") + k.name);
  k.f32_calls = &tm::counter(std::string("nn.kernel.f32_gemm.") + k.name);
  return k;
}

const KernelSet& set_for(Isa isa) {
  static const KernelSet scalar =
      make_set(Isa::kScalar, detail::u8i8_gemm_scalar,
               detail::u8_requant_scalar, detail::f32_row_block_scalar, 4);
#ifdef ADAPT_KERNELS_HAVE_AVX2
  static const KernelSet avx2 =
      make_set(Isa::kAvx2, detail::u8i8_gemm_avx2, detail::u8_requant_avx2,
               detail::f32_row_block_avx2, 8);
  if (isa == Isa::kAvx2) return avx2;
#endif
#ifdef ADAPT_KERNELS_HAVE_AVX512
  static const KernelSet avx512 =
      make_set(Isa::kAvx512, detail::u8i8_gemm_avx512,
               detail::u8_requant_avx512, detail::f32_row_block_avx512, 8);
  if (isa == Isa::kAvx512) return avx512;
#endif
  (void)isa;
  return scalar;
}

Isa best_supported() {
  if (supported(Isa::kAvx512)) return Isa::kAvx512;
  if (supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

/// The one-time dispatch decision: ADAPT_SIMD when valid and
/// supported, else the best the CPU offers.  A request this machine
/// cannot honor (ADAPT_SIMD=avx512 on an AVX2 box, or a typo) clamps
/// down instead of crashing, leaving a telemetry marker for triage.
Isa resolve_dispatch() {
  Isa isa = best_supported();
  if (const char* env = std::getenv("ADAPT_SIMD"); env != nullptr &&
                                                   env[0] != '\0') {
    Isa requested = Isa::kScalar;
    if (!parse_isa_name(env, &requested)) {
      tm::counter("nn.kernel.dispatch.bad_override").add();
    } else if (!supported(requested)) {
      tm::counter("nn.kernel.dispatch.unsupported_override").add();
    } else {
      isa = requested;
    }
  }
  tm::counter(std::string("nn.kernel.dispatch.") + isa_name(isa)).add();
  return isa;
}

/// Test-only override; -1 means "not forced".
std::atomic<int> forced_isa{-1};

}  // namespace

bool compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#ifdef ADAPT_KERNELS_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case Isa::kAvx512:
#ifdef ADAPT_KERNELS_HAVE_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool supported(Isa isa) {
  if (!compiled(isa)) return false;
  const core::CpuFeatures& f = core::cpu_features();
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kAvx2: return f.avx2;
    case Isa::kAvx512: return f.avx512_kernel_class();
  }
  return false;
}

const KernelSet& kernel_set(Isa isa) {
  ADAPT_REQUIRE(supported(isa), "kernel_set: ISA not supported on this host");
  return set_for(isa);
}

const KernelSet& active() {
  const int forced = forced_isa.load(std::memory_order_acquire);
  if (forced >= 0) return set_for(static_cast<Isa>(forced));
  static const Isa dispatched = resolve_dispatch();
  return set_for(dispatched);
}

Isa active_isa() { return active().isa; }

bool parse_isa_name(const char* value, Isa* out) {
  if (value == nullptr || out == nullptr) return false;
  if (std::strcmp(value, "scalar") == 0) {
    *out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(value, "avx2") == 0) {
    *out = Isa::kAvx2;
    return true;
  }
  if (std::strcmp(value, "avx512") == 0) {
    *out = Isa::kAvx512;
    return true;
  }
  return false;
}

void force_isa_for_testing(Isa isa) {
  ADAPT_REQUIRE(supported(isa),
                "force_isa_for_testing: ISA not supported on this host");
  forced_isa.store(static_cast<int>(isa), std::memory_order_release);
}

void reset_forced_isa_for_testing() {
  forced_isa.store(-1, std::memory_order_release);
}

}  // namespace adapt::nn::kernels
