/// Band-kernel registry: one-time dispatch (core::resolve_isa).  Built
/// with baseline flags; it only hands out pointers into the per-ISA
/// TUs.

#include "loc/kernels/band_kernels.hpp"

#include "core/cpu_features.hpp"
#include "core/contract.hpp"
#include "loc/kernels/band_kernel_impl.hpp"

namespace adapt::loc {

namespace {

const BandKernels& set_for(core::Isa isa) {
  using core::Isa;
  static const BandKernels scalar{Isa::kScalar, "scalar",
                                  kernels::arc_ranges_scalar,
                                  kernels::fold_ranges_scalar};
#ifdef ADAPT_LOC_KERNELS_HAVE_AVX2
  static const BandKernels avx2{Isa::kAvx2, "avx2", kernels::arc_ranges_avx2,
                                kernels::fold_ranges_avx2};
  if (isa == Isa::kAvx2) return avx2;
#endif
#ifdef ADAPT_LOC_KERNELS_HAVE_AVX512
  static const BandKernels avx512{Isa::kAvx512, "avx512",
                                  kernels::arc_ranges_avx512,
                                  kernels::fold_ranges_avx512};
  if (isa == Isa::kAvx512) return avx512;
#endif
  (void)isa;
  return scalar;
}

}  // namespace

bool band_kernels_compiled(core::Isa isa) {
  switch (isa) {
    case core::Isa::kScalar:
      return true;
    case core::Isa::kAvx2:
#ifdef ADAPT_LOC_KERNELS_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case core::Isa::kAvx512:
#ifdef ADAPT_LOC_KERNELS_HAVE_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool band_kernels_supported(core::Isa isa) {
  if (!band_kernels_compiled(isa)) return false;
  const core::CpuFeatures& f = core::cpu_features();
  switch (isa) {
    case core::Isa::kScalar: return true;
    case core::Isa::kAvx2: return f.avx2;
    case core::Isa::kAvx512: return f.avx512f;
  }
  return false;
}

const BandKernels& band_kernels(core::Isa isa) {
  ADAPT_REQUIRE(band_kernels_supported(isa),
                "band_kernels: ISA not supported on this host");
  return set_for(isa);
}

const BandKernels& active_band_kernels() {
  static const BandKernels& dispatched =
      set_for(core::resolve_isa(band_kernels_supported, "loc.kernel"));
  return dispatched;
}

}  // namespace adapt::loc
