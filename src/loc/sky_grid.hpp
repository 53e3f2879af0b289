#pragma once

/// \file sky_grid.hpp
/// Shared sky-pixelization geometry for the posterior localizers.
///
/// The IncrementalLocalizer's band fold (incremental.hpp) evaluates
/// the ring likelihood on this equal-angle-row / sin-scaled-azimuth
/// grid, and SkyMap (skymap.hpp) reads its posterior back.  Pixel
/// indexing, center directions, solid angles, and — critically — the
/// direction->pixel mapping live here so the fold, the map's queries
/// and the test-local full scan cannot disagree about which pixel a
/// boundary direction belongs to.
///
/// Pixel-centre table: every pixel centre is computed once, row-major,
/// by from_spherical(row_polar_rad(row), 2*pi*(az + 0.5)/az_bins(row)),
/// and stored as three arrays, x, y and z, indexed by pixel (SoA), so
/// the band fold (loc/kernels) loads a run of centres as three vector
/// registers.  Every reader — pixel_center(), which builds the Vec3,
/// centers(), row_centers(), the band fold and the map's queries —
/// reads those same bits.  The table is immutable and interned for
/// the process lifetime in a registry keyed by (resolution_deg,
/// max_polar_deg): every grid of one geometry, copies included, shares
/// one table.  All per-stream localizers on one serve grid then hold
/// one table between them (a 2 deg grid is 5,180 centres, 0.5 deg is
/// 82,594), and a localizer built mid-run costs no trigonometry.  The
/// registry is guarded by a core::Mutex taken only while a grid is
/// constructed; reads of a built table take no lock.
///
/// Boundary contract of pixel_of():
///   - polar angle in [0, max_polar_deg] maps to a valid pixel; the
///     field-of-view edge itself (polar == max_polar_deg, e.g. a
///     horizon vector with z == 0) belongs to the last row.  A
///     floating-point slop of kFovEdgeTolDeg absorbs rad->deg rounding
///     at the edge.
///   - beyond the edge (or a non-finite direction): std::nullopt.
///   - azimuth is wrapped into [0, 2*pi); values landing exactly on
///     2*pi (atan2 rounding) clamp into the row's last bin, never out
///     of range.
///
/// normalize_log_posterior() turns per-pixel log-likelihoods into a
/// normalized posterior with solid-angle weights, with explicit
/// degenerate handling: when no pixel carries finite mass (all
/// log-likelihoods -inf/NaN, or the normalization sum is zero or
/// non-finite) it returns false, produces the *uniform* solid-angle
/// posterior instead of NaNs, and counts `loc.skymap.degenerate`.

#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/vec3.hpp"

namespace adapt::loc {

/// Pixel centres as x/y/z arrays of one length (a whole table or one
/// row of it); element i is the centre (x[i], y[i], z[i]).
struct CentreArrays {
  std::span<const double> x;
  std::span<const double> y;
  std::span<const double> z;

  std::size_t size() const { return x.size(); }
  core::Vec3 operator[](std::size_t i) const { return {x[i], y[i], z[i]}; }
  CentreArrays subspan(std::size_t first, std::size_t count) const {
    return {x.subspan(first, count), y.subspan(first, count),
            z.subspan(first, count)};
  }
};

namespace detail {
/// The shared pixel-centre table (see the file comment).
struct CentreTable {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
};
}  // namespace detail

/// Degrees of slop accepted past the field-of-view edge before a
/// direction stops mapping to a pixel (covers acos/rad_to_deg rounding
/// for directions mathematically on the edge).
inline constexpr double kFovEdgeTolDeg = 1e-9;

class SkyGrid {
 public:
  SkyGrid() = default;

  /// Equal-angle rows of `resolution_deg` pitch from the zenith down to
  /// `max_polar_deg`; azimuth bins per row scale with sin(polar) so
  /// pixels keep roughly equal solid angle.
  SkyGrid(double resolution_deg, double max_polar_deg);

  double resolution_deg() const { return resolution_deg_; }
  double max_polar_deg() const { return max_polar_deg_; }
  int n_rows() const { return n_polar_; }
  std::size_t n_pixels() const { return total_; }

  int az_bins(std::size_t row) const { return az_bins_[row]; }
  std::size_t row_offset(std::size_t row) const { return row_offset_[row]; }
  std::size_t row_of(std::size_t index) const;

  /// Polar angle [rad] of the row's pixel centers.
  double row_polar_rad(std::size_t row) const;

  /// Cached cos/sin of the row's center polar angle (the incremental
  /// band fold derives each row's candidate azimuth arcs from them).
  double row_cos(std::size_t row) const { return row_cos_[row]; }
  double row_sin(std::size_t row) const { return row_sin_[row]; }

  /// Pixel centres, read from the shared table (see the file comment).
  core::Vec3 pixel_center(std::size_t index) const {
    return centers()[index];
  }
  core::Vec3 pixel_center(std::size_t row, std::size_t az) const {
    return centers()[row_offset_[row] + az];
  }
  /// The whole centre table, indexed by pixel.  Grids of one geometry
  /// return views of the same arrays.
  CentreArrays centers() const {
    return {centers_->x, centers_->y, centers_->z};
  }
  /// The row's pixel centres, azimuth bin 0 first.
  CentreArrays row_centers(std::size_t row) const {
    return centers().subspan(row_offset_[row],
                             static_cast<std::size_t>(az_bins_[row]));
  }

  /// Solid angle [deg^2] of one pixel in `row` (all pixels of a row
  /// are congruent).
  double row_pixel_solid_angle_deg2(std::size_t row) const {
    return row_sa_deg2_[row];
  }
  /// Calls f(index, solid_angle_deg2) for every pixel in index order,
  /// reading each row's solid angle once (no row_of() per pixel).
  template <class F>
  void for_each_pixel_solid_angle(F&& f) const {
    for (std::size_t row = 0; row < az_bins_.size(); ++row) {
      const double sa = row_sa_deg2_[row];
      const std::size_t end =
          row_offset_[row] + static_cast<std::size_t>(az_bins_[row]);
      for (std::size_t i = row_offset_[row]; i < end; ++i) f(i, sa);
    }
  }

  /// Pixel containing `direction`, or nullopt outside the field of
  /// view (see the boundary contract in the file comment).
  std::optional<std::size_t> pixel_of(const core::Vec3& direction) const;

 private:
  double resolution_deg_ = 0.0;
  double max_polar_deg_ = 0.0;
  int n_polar_ = 0;
  std::size_t total_ = 0;
  std::vector<int> az_bins_;
  std::vector<std::size_t> row_offset_;
  std::vector<double> row_sa_deg2_;
  std::vector<double> row_cos_;
  std::vector<double> row_sin_;
  std::shared_ptr<const detail::CentreTable> centers_;
};

/// exp(d) for a softmax shift d <= 0, without the call where the
/// result is +0 either way: exp underflows to exactly +0 below about
/// -745.13, and glibc reaches that +0 through its slow path.
inline double shifted_exp(double d) { return d < -746.0 ? 0.0 : std::exp(d); }

/// Normalize per-pixel log-posterior values into probability masses
/// with solid-angle weights (stable softmax).  Returns true on a valid
/// posterior.  Returns false on a degenerate one — no pixel with
/// finite mass, or a zero/non-finite normalization sum — in which case
/// `probability` holds the uniform solid-angle posterior (never NaN)
/// and the `loc.skymap.degenerate` telemetry counter is bumped.
/// Non-finite individual log values contribute zero mass; they poison
/// neither their neighbours nor the normalization.
bool normalize_log_posterior(const SkyGrid& grid,
                             std::span<const double> log_post,
                             std::vector<double>& probability);

}  // namespace adapt::loc
