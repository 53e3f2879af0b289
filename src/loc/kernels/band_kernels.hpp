#pragma once

/// \file band_kernels.hpp
/// Runtime-dispatched SIMD kernels for the streaming localizer's
/// per-ring band update (loc/incremental.hpp): the candidate azimuth
/// ranges of a list of grid rows (arc_ranges, loc/arc_ranges.hpp
/// derives them) and the fold of one ring into those ranges.
///
/// Variants: scalar (always compiled, the reference; two lanes of the
/// compilers' generic vector type, so it needs no ISA beyond the
/// baseline), AVX2 and AVX-512F.  All three are one template
/// (band_kernel_impl.hpp) instantiated over a lane type of 2, 4 or 8
/// doubles, built with -ffp-contract=off, so every element goes through
/// the same IEEE expression and the variants agree bit for bit.  A run
/// of pixels is walked in whole lane steps with masked loads and
/// stores: lanes past the run are never stored, because a spilled lane
/// could add a pixel that another run of the same row also folds (a
/// two-range row, or a wrapped run in a row narrower than a vector).
/// Dispatch follows core::resolve_isa() (`ADAPT_SIMD`, markers
/// `loc.kernel.dispatch.*`); the AVX-512 variant needs AVX-512F only,
/// so it can run where the INT8 kernels' AVX-512 (VNNI) variant cannot.

#include <cstddef>

#include "core/simd_dispatch.hpp"
#include "core/vec3.hpp"

namespace adapt::loc {

/// Slack [bins] by which a candidate range reaches past the pixel
/// centres inside the analytic arc.  The arc ends come from acos of a
/// rounded cosine, so they can sit a rounding error away from where
/// the per-pixel test flips; this slack plus the guard bins absorbs
/// that, and is far below a bin, so it adds almost no wasted tests.
inline constexpr double kArcSlackBins = 0.02;

/// Margin [rad] the arc kernel allows for the difference between
/// acos_approx() and std::acos.  The polynomial's measured error is at
/// most a quarter of it over [-1, 1]: 1.5e-13 rad over the 2^21+
/// inputs tests/loc/arc_ranges_test.cpp sweeps, +-1 and 1 - 2^-k
/// included.
inline constexpr double kAcosMarginRad = 1e-11;

/// One accepted ring as the band update reads it (56 bytes: the
/// localizer's replay log keeps these, not whole ComptonRings).
struct RingBand {
  core::Vec3 axis;
  double eta;
  double d_eta;
  double axis_xy;  ///< hypot(axis.x, axis.y); places the arcs only
  double phi0;     ///< atan2(axis.y, axis.x); places the arcs only
};

/// Up to two inclusive unwrapped azimuth-bin ranges of one row.
struct BinRanges {
  long first[2] = {0, 0};
  long last[2] = {0, 0};
  int n = 0;
};

/// The rows an ArcRanges lists, one entry per row in list order: the
/// row's first pixel, its azimuth bins, the cos/sin of its centre
/// polar angle, bins / 2pi and the arc kernel's margin [bins].
struct ArcRows {
  std::size_t n = 0;
  const std::size_t* offset = nullptr;
  const double* bins = nullptr;
  const double* cos = nullptr;
  const double* sin = nullptr;
  const double* inv_bin_w = nullptr;
  const double* margin = nullptr;
};

/// A grid's pixel-centre table (sky_grid.hpp), indexed by pixel, as
/// plain pointers: the kernel TUs use no library template (see
/// band_kernel_impl.hpp).
struct CentrePointers {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
};

/// Scratch the arc kernel needs per row [doubles].
inline constexpr std::size_t kArcLanes = 6;

/// out[k] = the ranges of row k for the band |c.s - eta| <= w of
/// `ring`, through `lanes` (scratch of kArcLanes * rows.n doubles).
/// Returns the rows sent to the exact computation because an arc-end
/// coordinate fell within the margin (arc_ranges.hpp).
using ArcRangesFn = std::size_t (*)(const ArcRows& rows,
                                    const RingBand& ring, double w,
                                    double* lanes, BinRanges* out);

/// Adds max(0, 0.5 * (cap2 - r^2)), r = (axis.c - eta) / d_eta, to
/// excess[p] for every pixel p of `ranges` (row k's bins offset by
/// rows.offset[k]).  Returns the candidate pixels: the sum of the
/// ranges' lengths, not the vector lanes walked.
using FoldRangesFn = std::size_t (*)(const ArcRows& rows,
                                     const BinRanges* ranges,
                                     const RingBand& ring, double cap2,
                                     const CentrePointers& centres,
                                     double* excess);

struct BandKernels {
  core::Isa isa = core::Isa::kScalar;
  const char* name = "scalar";
  ArcRangesFn arc_ranges = nullptr;
  FoldRangesFn fold_ranges = nullptr;
};

/// Variant compiled into this binary (scalar always).
bool band_kernels_compiled(core::Isa isa);
/// Compiled and runnable here: AVX2, or AVX-512F for the AVX-512
/// variant (cpuid + XCR0).
bool band_kernels_supported(core::Isa isa);
/// A specific variant (must be supported; the equivalence tests pit
/// them against each other in one process).
const BandKernels& band_kernels(core::Isa isa);
/// The dispatched variant, resolved once.
const BandKernels& active_band_kernels();

}  // namespace adapt::loc
