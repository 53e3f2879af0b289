#pragma once

/// \file simd_dispatch.hpp
/// The one dispatch rule of the runtime-dispatched SIMD kernel
/// families (nn/kernels: the INT8 and float GEMMs; loc/kernels: the
/// streaming localizer's band fold).
///
/// A family names the ISA variants it compiled and can run on this
/// machine (cpuid + XCR0, core::cpu_features); resolve_isa() picks the
/// best of them, AVX-512 over AVX2 over scalar, unless
/// `ADAPT_SIMD=scalar|avx2|avx512` asks for another.  A request the
/// family cannot honour (a typo, or avx512 on a host without the
/// instructions it needs) clamps down to the best variant instead of
/// aborting — a tuning knob must never stop flight code — and leaves a
/// telemetry marker.  Families resolve once and cache the result.
///
/// Families differ only in what "runs" means: the INT8 kernels need
/// AVX-512 VNNI for their AVX-512 variant, the band fold only
/// AVX-512F, so one host may dispatch them to different ISAs.

#include <string>

namespace adapt::core {

enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kIsaCount = 3;

/// "scalar", "avx2" or "avx512".
const char* isa_name(Isa isa);

/// Parses an `ADAPT_SIMD` value (exact lower-case names only).  False
/// on anything else, leaving *out alone.
bool parse_isa_name(const char* value, Isa* out);

/// The dispatch decision for one kernel family: the best ISA `runs`
/// accepts, or the `ADAPT_SIMD` request when it parses and `runs`
/// accepts it.  Bumps `<family>.dispatch.<isa>` for the result, and
/// `<family>.dispatch.bad_override` / `.unsupported_override` for a
/// request it did not follow.
Isa resolve_isa(bool (*runs)(Isa), const std::string& family);

}  // namespace adapt::core
