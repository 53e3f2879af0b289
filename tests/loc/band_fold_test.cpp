#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/simd_dispatch.hpp"
#include "core/units.hpp"
#include "loc/arc_ranges.hpp"
#include "loc/kernels/band_kernels.hpp"
#include "loc/sky_grid.hpp"

namespace adapt::loc {
namespace {

constexpr double kSigma = 3.0;

/// Every band-kernel variant this host runs, scalar first.
std::vector<const BandKernels*> runnable_kernels() {
  std::vector<const BandKernels*> out;
  for (int i = 0; i < core::kIsaCount; ++i) {
    const auto isa = static_cast<core::Isa>(i);
    if (band_kernels_supported(isa)) out.push_back(&band_kernels(isa));
  }
  return out;
}

RingBand ring_of(const core::Vec3& axis, double eta, double d_eta) {
  return RingBand{axis, eta, d_eta, std::hypot(axis.x, axis.y),
                  std::atan2(axis.y, axis.x)};
}

/// A row list the fold kernel reads: offsets and bin counts (the arc
/// geometry is not read by the fold).
struct RowList {
  std::vector<std::size_t> offset;
  std::vector<double> bins;
  std::vector<double> unused;

  RowList(const SkyGrid& grid, const std::vector<std::size_t>& rows)
      : unused(rows.size(), 0.0) {
    for (const std::size_t row : rows) {
      offset.push_back(grid.row_offset(row));
      bins.push_back(static_cast<double>(grid.az_bins(row)));
    }
  }
  ArcRows view() const {
    return ArcRows{offset.size(), offset.data(), bins.data(), unused.data(),
                   unused.data(), unused.data(), unused.data()};
  }
};

/// The fold as the per-pixel rule reads: every bin of every range,
/// wrapped mod bins, gets max(0, 0.5 * (cap^2 - r^2)) with r from the
/// Vec3 dot product.
std::size_t oracle_fold(const SkyGrid& grid,
                        const std::vector<std::size_t>& rows,
                        const std::vector<BinRanges>& ranges,
                        const RingBand& ring, std::vector<double>& excess) {
  const double cap2 = kSigma * kSigma;
  std::size_t touched = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const long bins = grid.az_bins(rows[k]);
    for (int j = 0; j < ranges[k].n; ++j) {
      for (long b = ranges[k].first[j]; b <= ranges[k].last[j]; ++b) {
        const auto az = static_cast<std::size_t>(((b % bins) + bins) % bins);
        const std::size_t p = grid.row_offset(rows[k]) + az;
        const double r =
            (ring.axis.dot(grid.pixel_center(p)) - ring.eta) / ring.d_eta;
        excess[p] += std::max(0.0, 0.5 * (cap2 - r * r));
        ++touched;
      }
    }
  }
  return touched;
}

/// Bitwise equality of two excess arrays; names the first difference.
::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i]))
      return ::testing::AssertionFailure()
             << "pixel " << i << ": " << got[i] << " vs " << want[i];
  }
  return ::testing::AssertionSuccess();
}

BinRanges one_range(long first, long last) {
  BinRanges r;
  r.n = 1;
  r.first[0] = first;
  r.last[0] = last;
  return r;
}

BinRanges two_ranges(long first0, long last0, long first1, long last1) {
  BinRanges r = one_range(first0, last0);
  r.n = 2;
  r.first[1] = first1;
  r.last[1] = last1;
  return r;
}

TEST(BandFold, EveryVariantFoldsHandBuiltRunsLikeThePerPixelRule) {
  // Rows of an 8 deg grid: 4 bins (narrower than an AVX-512 vector and
  // as wide as an AVX2 one), 10, 32 and 45.  Run lengths 1-17 at the
  // row start, mid-row, against the row end, wrapped past it, and from
  // the lowest unwrapped first bin; two-range rows with both ranges in
  // one vector's reach.  Every pixel starts at a distinct value and the
  // band is wide enough that every folded pixel gains excess, so a
  // lane stored past a run would show.
  const SkyGrid grid(8.0, 90.0);
  ASSERT_EQ(grid.az_bins(0), 4);
  std::vector<std::size_t> rows;
  std::vector<BinRanges> ranges;
  const auto add = [&](std::size_t row, BinRanges r) {
    rows.push_back(row);
    ranges.push_back(r);
  };
  for (const std::size_t row : {5u, 9u}) {
    const long bins = grid.az_bins(row);
    ASSERT_GE(bins, 32);
    for (long len = 1; len <= 17; ++len) {
      add(row, one_range(0, len - 1));
      add(row, one_range(7, 7 + len - 1));
      add(row, one_range(bins - len, bins - 1));
      add(row, one_range(bins - 3, bins - 3 + len - 1));  // wraps
      add(row, one_range(-2, -2 + len - 1));              // wraps
      add(row, one_range(-bins - 1, -bins - 1 + len - 1));
      if (len <= 12) {
        add(row, two_ranges(1, len, len + 2, 2 * len + 1));
        add(row, two_ranges(-len, -1, 3, 3 + len - 1));
      }
    }
    add(row, one_range(0, bins - 1));
    add(row, one_range(-5, bins - 6));
  }
  for (const std::size_t row : {0u, 1u}) {
    const long bins = grid.az_bins(row);
    for (long len = 1; len <= bins; ++len) {
      for (long first = -bins - 1; first <= bins - 1; ++first)
        add(row, one_range(first, first + len - 1));
    }
    add(row, two_ranges(0, 0, 2, 2));
    add(row, two_ranges(-1, -1, 1, 1));
  }

  std::vector<double> start(grid.n_pixels());
  for (std::size_t i = 0; i < start.size(); ++i)
    start[i] = 1.0 + 1e-3 * static_cast<double>(i);
  const RingBand ring =
      ring_of(core::from_spherical(0.7, 2.1), 0.2, 0.6);
  ASSERT_GT(ring.d_eta * kSigma, 1.2 + 1e-9);  // every |c.s - eta| < cap
  for (const BandKernels* kernels : runnable_kernels()) {
    std::size_t touched_all = 0;
    std::size_t want_all = 0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      // One row per call, so each range meets fresh pixels.
      std::vector<double> want = start;
      want_all += oracle_fold(grid, {rows[k]}, {ranges[k]}, ring, want);
      std::vector<double> got = start;
      const RowList list(grid, {rows[k]});
      const CentreArrays c = grid.centers();
      touched_all += kernels->fold_ranges(
          list.view(), &ranges[k], ring, kSigma * kSigma,
          CentrePointers{c.x.data(), c.y.data(), c.z.data()}, got.data());
      ASSERT_TRUE(same_bits(got, want))
          << kernels->name << " row " << rows[k] << " entry " << k << " ["
          << ranges[k].first[0] << ", " << ranges[k].last[0] << "]"
          << (ranges[k].n == 2 ? " + second range" : "");
    }
    EXPECT_EQ(touched_all, want_all) << kernels->name;
  }
}

TEST(BandFold, EveryVariantUpdatesSeededBandsBitForBit) {
  // The whole band update (arc kernel, then fold kernel) of seeded
  // source and background rings on every row of 1/2/8 deg grids, each
  // variant against the per-pixel rule over the oracle-equal ranges the
  // scalar variant builds, summed over 300 rings per grid.
  for (const double res : {1.0, 2.0, 8.0}) {
    const SkyGrid grid(res, 100.0);
    ArcRanges arcs(static_cast<std::size_t>(grid.n_rows()));
    std::vector<std::size_t> rows;
    for (std::size_t row = 0; row < static_cast<std::size_t>(grid.n_rows());
         ++row) {
      arcs.add_row(grid, row);
      rows.push_back(row);
    }
    core::Rng rng(0xf01d + static_cast<std::uint64_t>(res));
    const core::Vec3 source = core::from_spherical(0.6, -1.2);
    std::vector<RingBand> rings;
    for (int i = 0; i < 300; ++i) {
      const core::Vec3 axis = rng.isotropic_direction();
      const double d_eta = rng.uniform(0.004, 0.3);
      const double eta = rng.uniform() < 0.25
                             ? rng.uniform(-1.0, 1.0)
                             : std::clamp(axis.dot(source) +
                                              rng.normal(0.0, d_eta),
                                          -1.0, 1.0);
      rings.push_back(ring_of(axis, eta, d_eta));
    }
    std::vector<double> want(grid.n_pixels(), 0.0);
    std::size_t want_touched = 0;
    const BandKernels& scalar = band_kernels(core::Isa::kScalar);
    std::vector<BinRanges> ranges(rows.size());
    for (const RingBand& ring : rings) {
      arcs.build(ring, kSigma * ring.d_eta, ranges, scalar);
      want_touched += oracle_fold(grid, rows, ranges, ring, want);
    }
    for (const BandKernels* kernels : runnable_kernels()) {
      std::vector<double> got(grid.n_pixels(), 0.0);
      std::size_t touched = 0;
      for (const RingBand& ring : rings)
        touched += arcs.fold(ring, kSigma, grid, got.data(), *kernels);
      EXPECT_EQ(touched, want_touched) << kernels->name << " res " << res;
      EXPECT_TRUE(same_bits(got, want)) << kernels->name << " res " << res;
    }
  }
}

TEST(BandFold, DispatchedVariantIsRunnable) {
  const BandKernels& active = active_band_kernels();
  EXPECT_TRUE(band_kernels_supported(active.isa));
  EXPECT_EQ(std::string(active.name), core::isa_name(active.isa));
  EXPECT_TRUE(band_kernels_compiled(core::Isa::kScalar));
  EXPECT_TRUE(band_kernels_supported(core::Isa::kScalar));
}

}  // namespace
}  // namespace adapt::loc
