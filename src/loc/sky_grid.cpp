#include "loc/sky_grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>

#include "core/contract.hpp"
#include "core/sync.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"

namespace adapt::loc {

using core::Vec3;

namespace {

using CenterTable = std::shared_ptr<const detail::CentreTable>;

/// Process-lifetime registry of pixel-centre tables, one per grid
/// geometry.  Keys are the bit patterns of (resolution_deg,
/// max_polar_deg): the geometry is a pure function of those two
/// doubles, so equal bits mean equal tables.
class CenterRegistry {
 public:
  template <typename Build>
  CenterTable intern(double resolution_deg, double max_polar_deg,
                     Build&& build) ADAPT_EXCLUDES(mutex_) {
    const Key key{std::bit_cast<std::uint64_t>(resolution_deg),
                  std::bit_cast<std::uint64_t>(max_polar_deg)};
    core::LockGuard lock(mutex_);
    CenterTable& table = tables_[key];
    if (!table) table = build();
    return table;
  }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  core::Mutex mutex_;
  std::map<Key, CenterTable> tables_ ADAPT_GUARDED_BY(mutex_);
};

CenterRegistry& center_registry() {
  // Never destroyed: grids held by other statics may outlive any
  // destruction order this registry could be given.
  static auto* registry = new CenterRegistry;
  return *registry;
}

}  // namespace

SkyGrid::SkyGrid(double resolution_deg, double max_polar_deg)
    : resolution_deg_(resolution_deg), max_polar_deg_(max_polar_deg) {
  ADAPT_REQUIRE(resolution_deg > 0.0, "resolution must be positive");
  ADAPT_REQUIRE(max_polar_deg > 0.0 && max_polar_deg <= 180.0,
                "max polar out of range");
  n_polar_ = std::max(
      1, static_cast<int>(std::ceil(max_polar_deg / resolution_deg)));

  // Equal-angle rows; azimuth bins per row scale with sin(polar) so
  // pixels keep roughly equal solid angle (a poor man's equal-area
  // map — adequate for credible-region integrals at 1-degree scale).
  az_bins_.resize(static_cast<std::size_t>(n_polar_));
  row_offset_.resize(static_cast<std::size_t>(n_polar_));
  row_sa_deg2_.resize(static_cast<std::size_t>(n_polar_));
  row_cos_.resize(static_cast<std::size_t>(n_polar_));
  row_sin_.resize(static_cast<std::size_t>(n_polar_));
  constexpr double deg2_per_sr = 180.0 / core::kPi * 180.0 / core::kPi;
  total_ = 0;
  for (int row = 0; row < n_polar_; ++row) {
    const double polar_mid = core::deg_to_rad((row + 0.5) * resolution_deg);
    const int bins = std::max(
        1, static_cast<int>(std::ceil(360.0 / resolution_deg *
                                      std::sin(polar_mid))));
    const auto r = static_cast<std::size_t>(row);
    az_bins_[r] = bins;
    row_offset_[r] = total_;
    total_ += static_cast<std::size_t>(bins);
    const double t0 = core::deg_to_rad(static_cast<double>(row) *
                                       resolution_deg);
    const double t1 = core::deg_to_rad((static_cast<double>(row) + 1.0) *
                                       resolution_deg);
    const double band_sr = core::kTwoPi * (std::cos(t0) - std::cos(t1));
    row_sa_deg2_[r] = band_sr / static_cast<double>(bins) * deg2_per_sr;
    row_cos_[r] = std::cos(polar_mid);
    row_sin_[r] = std::sin(polar_mid);
  }

  centers_ = center_registry().intern(resolution_deg, max_polar_deg, [&] {
    auto table = std::make_shared<detail::CentreTable>();
    table->x.reserve(total_);
    table->y.reserve(total_);
    table->z.reserve(total_);
    for (std::size_t row = 0; row < static_cast<std::size_t>(n_polar_);
         ++row) {
      const double polar = row_polar_rad(row);
      const int bins = az_bins_[row];
      for (int az = 0; az < bins; ++az) {
        const double azimuth = core::kTwoPi *
                               (static_cast<double>(az) + 0.5) /
                               static_cast<double>(bins);
        const Vec3 centre = core::from_spherical(polar, azimuth);
        table->x.push_back(centre.x);
        table->y.push_back(centre.y);
        table->z.push_back(centre.z);
      }
    }
    return CenterTable(std::move(table));
  });
}

std::size_t SkyGrid::row_of(std::size_t index) const {
  const auto row_it =
      std::upper_bound(row_offset_.begin(), row_offset_.end(), index);
  return static_cast<std::size_t>(
             std::distance(row_offset_.begin(), row_it)) - 1;
}

double SkyGrid::row_polar_rad(std::size_t row) const {
  return core::deg_to_rad((static_cast<double>(row) + 0.5) * resolution_deg_);
}

std::optional<std::size_t> SkyGrid::pixel_of(const Vec3& direction) const {
  const double polar_deg = core::rad_to_deg(core::polar_of(direction));
  // Negated comparison so a NaN polar angle (non-finite direction)
  // falls through to nullopt; the edge itself is *inside* the map.
  if (!(polar_deg <= max_polar_deg_ + kFovEdgeTolDeg)) return std::nullopt;
  const auto row = std::min(
      static_cast<std::size_t>(polar_deg / resolution_deg_),
      static_cast<std::size_t>(n_polar_ - 1));
  double az = core::azimuth_of(direction);
  if (az < 0.0) az += core::kTwoPi;
  if (!std::isfinite(az)) return std::nullopt;
  const auto bins = static_cast<double>(az_bins_[row]);
  auto az_bin = static_cast<std::size_t>(az / core::kTwoPi * bins);
  if (az_bin >= static_cast<std::size_t>(az_bins_[row]))
    az_bin = static_cast<std::size_t>(az_bins_[row]) - 1;
  return row_offset_[row] + az_bin;
}

bool normalize_log_posterior(const SkyGrid& grid,
                             std::span<const double> log_post,
                             std::vector<double>& probability) {
  ADAPT_REQUIRE(log_post.size() == grid.n_pixels(),
                "log posterior size mismatch");
  const std::size_t total = log_post.size();
  probability.assign(total, 0.0);

  // Max over *finite* entries only: a stray -inf (underflowed pixel)
  // or NaN must not poison the softmax shift.
  double max_log = -std::numeric_limits<double>::infinity();
  bool any_finite = false;
  for (const double v : log_post) {
    if (std::isfinite(v) && (!any_finite || v > max_log)) {
      max_log = v;
      any_finite = true;
    }
  }

  double norm = 0.0;
  if (any_finite) {
    grid.for_each_pixel_solid_angle([&](std::size_t i, double sa) {
      const double v = log_post[i];
      const double mass =
          std::isfinite(v) ? shifted_exp(v - max_log) * sa : 0.0;
      probability[i] = mass;
      norm += mass;
    });
  }

  if (!(norm > 0.0) || !std::isfinite(norm)) {
    // Degenerate posterior: no pixel carries finite mass.  Return the
    // uniform solid-angle posterior (a correct statement of total
    // ignorance) instead of dividing by zero into a NaN map.
    static auto& degenerate =
        core::telemetry::counter("loc.skymap.degenerate");
    degenerate.add(1);
    double total_sa = 0.0;
    grid.for_each_pixel_solid_angle(
        [&](std::size_t, double sa) { total_sa += sa; });
    grid.for_each_pixel_solid_angle([&](std::size_t i, double sa) {
      probability[i] = sa / total_sa;
    });
    return false;
  }

  for (double& p : probability) p /= norm;
  return true;
}

}  // namespace adapt::loc
