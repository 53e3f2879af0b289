#pragma once

/// \file skymap.hpp
/// Posterior sky maps: the localization product a GRB alert actually
/// ships (follow-up telescopes consume probability maps with credible
/// regions, not bare point estimates).
///
/// The map holds the rings' truncated joint likelihood on a
/// latitude/longitude grid over the visible (upper) hemisphere,
/// normalized per pixel with solid-angle weights.  From it: the
/// maximum-a-posteriori direction and the area of the smallest
/// credible region at a given probability content — the "error circle"
/// radius quoted in alerts.
///
/// There is one posterior engine: compute() folds the rings into an
/// IncrementalLocalizer with the map's resolution, truncation and
/// field of view and returns its snapshot(), so a batch map and a
/// streaming posterior over the same rings are the same sums, and the
/// batch map costs O(band pixels) per ring, not O(pixels).  It matches
/// the per-pixel scan it replaced (kept as a test oracle in
/// tests/loc/full_scan_oracle.hpp) within 1e-9 relative per pixel,
/// with the same peak pixel.  Its telemetry is the localizer's
/// `loc.incremental.*`.
///
/// Degenerate posteriors (every pixel's likelihood underflowing to
/// zero mass) no longer abort or divide into NaNs: the map comes back
/// uniform with degenerate() == true and the `loc.skymap.degenerate`
/// counter bumped — see normalize_log_posterior() in sky_grid.hpp.
/// Unusable rings (ring_usable() == false) are rejected by the fold,
/// matching the point-estimate localizer paths.

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/vec3.hpp"
#include "loc/sky_grid.hpp"
#include "recon/ring.hpp"

namespace adapt::loc {

struct SkyMapConfig {
  double resolution_deg = 1.0;    ///< Pixel size in polar angle.
  double truncation_sigma = 3.0;  ///< Outlier cap of the likelihood.
  double max_polar_deg = 90.0;    ///< Field-of-view edge.
};

/// Greedy mass cut shared by every credible-region query (SkyMap,
/// IncrementalLocalizer) and the incremental localizer's row
/// refinement: calls `take(i)` for entries in (key descending, index
/// ascending) order — a strict total order, so the visit sequence, and
/// with it every floating-point sum over it, never depends on the
/// sort implementation — and stops after the entry that brings the
/// summed `mass` to `content` (or after the last entry).  The first
/// entry comes from one linear scan, and a peaked posterior often
/// holds `content` in it alone; only when it does not is a heap built
/// over the rest, popping one entry per take: O(n + k log n) for the
/// k entries taken, instead of a full sort.  `heap` is caller-owned
/// scratch.
template <class Take>
void greedy_mass_cut(std::span<const double> key,
                     std::span<const double> mass, double content,
                     std::vector<std::size_t>& heap, Take&& take) {
  const std::size_t n = key.size();
  if (n == 0) return;
  std::size_t top = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (key[i] > key[top]) top = i;
  take(top);
  double sum = 0.0;
  sum += mass[top];
  if (sum >= content) return;

  heap.resize(n - 1);
  const auto skip = heap.begin() + static_cast<std::ptrdiff_t>(top);
  std::iota(heap.begin(), skip, std::size_t{0});
  std::iota(skip, heap.end(), top + 1);
  // Heap "less": a is taken after b.
  const auto after = [key](std::size_t a, std::size_t b) {
    if (key[a] != key[b]) return key[a] < key[b];
    return a > b;
  };
  std::make_heap(heap.begin(), heap.end(), after);
  for (auto end = heap.end(); end != heap.begin(); --end) {
    std::pop_heap(heap.begin(), end, after);
    const std::size_t i = *(end - 1);
    take(i);
    sum += mass[i];
    if (sum >= content) break;
  }
}

class SkyMap {
 public:
  /// The posterior for a ring set: the band fold's snapshot().
  /// Throws std::invalid_argument on a config the localizer rejects.
  static SkyMap compute(std::span<const recon::ComptonRing> rings,
                        const SkyMapConfig& config = {});

  /// Build a map from an externally accumulated per-pixel log
  /// posterior on `grid` (the IncrementalLocalizer's snapshot path;
  /// any additive constant cancels in normalization).
  static SkyMap from_log_posterior(const SkyGrid& grid,
                                   std::span<const double> log_post,
                                   const SkyMapConfig& config);

  /// Maximum-a-posteriori direction.
  core::Vec3 peak() const;

  /// Area [deg^2] of the smallest set of pixels containing `content`
  /// of the posterior probability (e.g. 0.9 for the 90% region).
  /// `content` must be finite and strictly inside (0, 1).
  double credible_region_area_deg2(double content) const;

  /// Equivalent radius [deg] of a circle with the credible-region
  /// area — the alert's error-circle radius.
  double credible_radius_deg(double content) const;

  /// Posterior probability of the pixel containing `direction`
  /// (0 outside the field of view; the field-of-view edge itself is
  /// inside — see the SkyGrid boundary contract).
  double probability_at(const core::Vec3& direction) const;

  /// Dump as CSV (polar_deg, azimuth_deg, probability).  Returns false
  /// on I/O failure.
  bool write_csv(const std::string& path) const;

  std::size_t n_pixels() const { return probability_.size(); }
  const SkyMapConfig& config() const { return config_; }
  const SkyGrid& grid() const { return grid_; }

  /// True when the posterior was degenerate (no pixel with finite
  /// mass) and the map is the uniform fallback.
  bool degenerate() const { return degenerate_; }

 private:
  SkyMap() = default;

  SkyMapConfig config_;
  SkyGrid grid_;
  std::vector<double> probability_;  ///< Normalized posterior mass
                                     ///< per pixel.
  bool degenerate_ = false;
};

}  // namespace adapt::loc
