#include "core/simd_dispatch.hpp"

#include <cstdlib>
#include <cstring>

#include "core/telemetry.hpp"

namespace adapt::core {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: break;
  }
  return "scalar";
}

bool parse_isa_name(const char* value, Isa* out) {
  if (value == nullptr || out == nullptr) return false;
  for (int i = 0; i < kIsaCount; ++i) {
    const auto isa = static_cast<Isa>(i);
    if (std::strcmp(value, isa_name(isa)) == 0) {
      *out = isa;
      return true;
    }
  }
  return false;
}

Isa resolve_isa(bool (*runs)(Isa), const std::string& family) {
  Isa isa = Isa::kScalar;
  for (const Isa best : {Isa::kAvx512, Isa::kAvx2}) {
    if (runs(best)) {
      isa = best;
      break;
    }
  }
  if (const char* env = std::getenv("ADAPT_SIMD");
      env != nullptr && env[0] != '\0') {
    Isa requested = Isa::kScalar;
    if (!parse_isa_name(env, &requested)) {
      telemetry::counter(family + ".dispatch.bad_override").add();
    } else if (!runs(requested)) {
      telemetry::counter(family + ".dispatch.unsupported_override").add();
    } else {
      isa = requested;
    }
  }
  telemetry::counter(family + ".dispatch." + isa_name(isa)).add();
  return isa;
}

}  // namespace adapt::core
