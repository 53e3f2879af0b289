#pragma once

/// \file incremental.hpp
/// Incrementally updatable sky-posterior accumulator for streaming
/// localization — the NNUE incremental-accumulator idea applied to the
/// ring likelihood.
///
/// The sky posterior is, per pixel s_i, the truncated joint NLL
///   nll_i = sum_rings 0.5 * min(r^2, cap^2),   r = (c.s_i - eta)/d_eta,
/// which costs O(pixels * rings) when every ring is scored at every
/// pixel.  Observe that
///   -nll_i = -0.5 cap^2 N + excess_i,
///   excess_i = sum_rings max(0, 0.5 * (cap^2 - r^2)),
/// and the -0.5 cap^2 N term is pixel-independent, so it cancels in the
/// softmax normalization.  A ring therefore only changes the posterior
/// shape on the pixels where its residual is inside the truncation cap:
/// the band |c.s - eta| <= cap * d_eta, a thin small-circle annulus on
/// the sky.  IncrementalLocalizer keeps per-pixel `excess` sums and
/// adds each arriving ring to just that band, enumerated analytically
/// per grid row (at most two azimuth arcs per row), in O(band pixels)
/// instead of O(grid).  The arcs are cut tight: a row tests the pixel
/// centres inside each arc plus one guard bin per arc end, and every
/// pixel that passes the exact residual test is among them, so the
/// sums equal a full-row scan's bit for bit.  A ring's azimuth-only
/// invariants (hypot and atan2 of its axis) are computed once per ring,
/// not once per row; they place the arcs and nothing else.  Each ring
/// and row list is one band update, ArcRanges::fold() (arc_ranges.hpp):
/// the arcs of every visited row first (a vectorized polynomial acos,
/// exact libm acos only where an arc end falls within its error margin
/// of a bin boundary), then the folds, both by the dispatched band
/// kernels (loc/kernels: scalar, AVX2 or AVX-512, bit-identical).  Each
/// tested pixel's residual is ring_residual's (c.s - eta) / d_eta
/// against the grid's shared pixel-centre table (sky_grid.hpp, x/y/z
/// arrays), so no tested pixel calls into libm.  The update cost
/// add_ring() returns, `touched`, counts the candidate pixels, not the
/// vector lanes walked, so it is the same for every variant.
///
/// Coarse-to-fine: a coarse grid (`coarse_factor` x the resolution) is
/// always updated; full-resolution rows are materialized lazily — only
/// the coarse rows holding the top `refine_mass_fraction` of posterior
/// mass are refined, by replaying the stored rings over those rows.
/// The fine excess is one per-pixel array, allocated at the first
/// refinement; only refined rows are folded into it.
/// Refinement is monotone (a refined row stays refined and is kept
/// current by subsequent updates) and replay happens in ring-arrival
/// order, so results are independent of *when* refinement happened.
/// The replay log keeps per ring only what the band fold reads (axis,
/// eta, d_eta and the two per-ring invariants, 56 bytes), not the
/// whole ComptonRing.
///
/// Known deviation: when max_polar_deg is not a multiple of the coarse
/// pixel, the last coarse row reaches past the field of view (an 8 deg
/// coarse grid over 90 deg centres its last row at 92 deg); that row
/// still competes for refinement with its full coarse solid angle.
///
/// Equivalence contract against the full per-pixel scan (tested in
/// tests/loc/incremental_test.cpp):
///   - snapshot() — and every query when `refine_mass_fraction` is
///     1.0 — agrees with the per-pixel full scan (the truncated NLL of
///     every ring at every pixel centre, kept as a test oracle in
///     tests/loc/full_scan_oracle.hpp) up to floating-point noise
///     only: per-pixel probabilities within 1e-9 relative, identical
///     peak pixel, credible areas within one pixel of greedy-cut
///     tie-breaking.  SkyMap::compute is this fold plus snapshot().
///     Each pixel's residual is bit-equal to the full scan's for the
///     same ring and pixel (same expression, same pixel centre).  Bit
///     identity of the sums is NOT promised, only because they
///     associate differently: the scan sums 0.5*min(r^2,cap^2) per
///     pixel across rings while the accumulator sums
///     0.5*(cap^2-r^2) per ring across pixels.
///   - the candidate ranges equal the per-row libm-acos computation's
///     on every row (ArcRanges, held to it as an oracle in
///     tests/loc/arc_ranges_test.cpp), so which pixels a ring tests,
///     and every sum, do not depend on the polynomial (`touched/ring`
///     and the digests pinned in the tests hold them).
///   - credible regions (here and in SkyMap) come from one greedy cut,
///     greedy_mass_cut(), taking entries by (value descending, index
///     ascending), so tied pixels are cut in a defined order.  The
///     first entry comes from one scan and the heap is built only when
///     it holds less than the content, which changes no visit.
///     Entries whose excess sits more than 746 below the maximum get
///     +0 mass without an exp call, the value exp returns there.
///   - adaptive queries (default config) additionally approximate the
///     unrefined tail by its coarse pixels; with the default
///     refine_mass_fraction = 0.999 the peak is exact and the 68%/90%
///     credible radii agree with batch within the coarse pixel scale.
///     Because rows are chosen from the posterior *at query time*, the
///     refined set — and with it the tail's share of the normalization
///     — depends on when queries happened.  The mass cut is taken on
///     the *coarse* posterior, whose pixel-center evaluation
///     misestimates a sharp peak, so the tail approximation can move
///     normalized probabilities by a few percent (credible radii and
///     the peak are far less sensitive).  Set refine_mass_fraction to
///     1.0, or use snapshot(), where tight normalization matters.
///   - both paths are single-pixel deterministic: results are
///     bit-identical across thread counts and `ADAPT_SIMD` settings,
///     and (given the same query points, or with refine_mass_fraction
///     1.0) add_ring-one-at-a-time is bit-identical to add_rings.
///
/// Unusable rings (ring_usable() == false) are rejected and counted,
/// exactly like the point-estimate paths.
///
/// Telemetry: `loc.incremental.rings`, `loc.incremental.rings_rejected`
/// counters; `loc.incremental.update_ms` and
/// `loc.incremental.pixels_touched` histograms per update (the fold);
/// `loc.incremental.query_ms` histogram per credible-region query
/// (posterior rebuild plus the cut); `loc.incremental.rows_refined`
/// counter; `loc.incremental.arc_fallbacks` counter, bumped once per
/// row whose arc ranges took the exact libm-acos path (arc_ranges.hpp;
/// 0 of 2.2 million ranges on bench_loc_incremental's serve-cadence
/// stream).

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"
#include "loc/arc_ranges.hpp"
#include "loc/sky_grid.hpp"
#include "loc/skymap.hpp"
#include "recon/ring.hpp"

namespace adapt::loc {

struct IncrementalConfig {
  double resolution_deg = 1.0;    ///< Fine-grid pixel size.
  double truncation_sigma = 3.0;  ///< Outlier cap of the likelihood.
  double max_polar_deg = 90.0;    ///< Field-of-view edge.
  /// Coarse grid is `coarse_factor` x coarser than fine (>= 1; 1 makes
  /// the two grids identical).
  int coarse_factor = 4;
  /// Fraction of coarse posterior mass whose rows get full-resolution
  /// refinement at query time, in (0, 1].  1.0 refines every coarse
  /// row, whatever its mass: the tight-equivalence mode in which every
  /// query reads the full-resolution posterior, as snapshot() does.
  double refine_mass_fraction = 0.999;
};

class IncrementalLocalizer {
 public:
  explicit IncrementalLocalizer(const IncrementalConfig& config = {});

  /// Fold one ring into the accumulator.  Returns the number of
  /// candidate pixels examined (the update cost, not the vector lanes
  /// walked); 0 and a counted rejection for unusable rings.
  std::size_t add_ring(const recon::ComptonRing& ring);

  /// Fold a batch; returns total candidate pixels examined.
  std::size_t add_rings(std::span<const recon::ComptonRing> rings);

  std::size_t n_rings() const { return rings_.size(); }
  std::size_t rings_rejected() const { return rings_rejected_; }
  std::uint64_t pixels_touched_total() const { return pixels_touched_; }

  /// Queries are non-const: they lazily refine rows and re-normalize
  /// the mixed coarse/fine posterior when the accumulator changed.
  core::Vec3 peak();
  double credible_region_area_deg2(double content);
  double credible_radius_deg(double content);
  double probability_at(const core::Vec3& direction);

  /// True when the last normalization was degenerate (uniform
  /// fallback posterior) — see normalize_log_posterior().
  bool degenerate();

  /// Materialize the full fine-resolution posterior as a SkyMap
  /// (refines every row).  SkyMap::compute returns exactly this.
  SkyMap snapshot();

  /// Fine rows currently materialized at full resolution.
  std::size_t refined_fine_rows() const;

  /// Accumulated excess of fine row `row`, one value per azimuth bin
  /// (empty while the row is not refined).
  std::span<const double> fine_row_excess(std::size_t row) const;

  const SkyGrid& fine_grid() const { return fine_; }
  const SkyGrid& coarse_grid() const { return coarse_; }
  const IncrementalConfig& config() const { return config_; }

 private:
  void refine_coarse_row(std::size_t coarse_row);
  std::size_t fine_rows_of(std::size_t coarse_row, std::size_t& first) const;
  void ensure_posterior();

  IncrementalConfig config_;
  SkyGrid fine_;
  SkyGrid coarse_;

  std::vector<double> coarse_excess_;          ///< Per coarse pixel.
  std::vector<std::uint8_t> coarse_refined_;   ///< Per coarse row.
  /// Per fine pixel, allocated at the first refinement; only the
  /// refined rows' pixels are ever folded into.
  std::vector<double> fine_excess_;
  std::vector<RingBand> rings_;  ///< Replay log for refinement
                                 ///< backfill, in arrival order.
  // The rows each band update visits, storage sized here at
  // construction: every coarse row, the refined fine rows (in
  // refinement order), and the fine rows of the coarse row being
  // refined.
  ArcRanges coarse_arcs_;
  ArcRanges fine_arcs_;
  ArcRanges replay_arcs_;

  std::size_t rings_rejected_ = 0;
  std::uint64_t pixels_touched_ = 0;

  // Lazily rebuilt mixed posterior (see ensure_posterior()).
  bool posterior_dirty_ = true;
  bool degenerate_ = false;
  std::vector<double> mixed_value_;  ///< Excess per mixed entry.
  std::vector<double> mixed_sa_;     ///< Solid angle [deg^2] per entry.
  std::vector<double> mixed_prob_;   ///< Normalized mass per entry.
  /// Offset of each fine row's pixels in the mixed arrays (npos when
  /// the row is not refined) and of each unrefined coarse row's pixels
  /// (npos when refined).
  std::vector<std::size_t> fine_row_off_;
  std::vector<std::size_t> coarse_row_off_;

  // Per-query scratch, reused across queries.
  std::vector<double> coarse_prob_;
  std::vector<double> row_mass_;
  std::vector<std::size_t> cut_heap_;
};

}  // namespace adapt::loc
