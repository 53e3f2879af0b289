#include "loc/skymap.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {

using core::Vec3;

SkyMap SkyMap::compute(std::span<const recon::ComptonRing> rings,
                       const SkyMapConfig& config) {
  ADAPT_REQUIRE(config.resolution_deg > 0.0, "resolution must be positive");
  ADAPT_REQUIRE(config.max_polar_deg > 0.0 && config.max_polar_deg <= 180.0,
                "max polar out of range");
  ADAPT_REQUIRE(std::isfinite(config.truncation_sigma) &&
                    config.truncation_sigma > 0.0,
                "truncation sigma must be finite and positive");

  // Unusable rings (NaN axis, non-positive d_eta) would poison every
  // pixel identically; drop them up front like the point-estimate
  // localizer does so a single bad ring cannot degrade the whole map.
  std::vector<recon::ComptonRing> filtered_storage;
  const std::span<const recon::ComptonRing> usable =
      usable_rings(rings, filtered_storage);

  SkyMap map;
  map.config_ = config;
  map.grid_ = SkyGrid(config.resolution_deg, config.max_polar_deg);
  const std::size_t total = map.grid_.n_pixels();

  // Log-posterior per pixel, then a stable softmax with solid-angle
  // weights.  Each pixel is computed independently, so the result is
  // bit-identical regardless of thread count or SIMD dispatch.
  std::vector<double> log_post(total);
  core::parallel_for(
      total,
      [&](std::size_t i) {
        const Vec3 dir = map.grid_.pixel_center(i);
        log_post[i] = -truncated_neg_log_likelihood(usable, dir,
                                                    config.truncation_sigma);
      },
      /*grain=*/64);
  map.degenerate_ =
      !normalize_log_posterior(map.grid_, log_post, map.probability_);
  return map;
}

SkyMap SkyMap::from_log_posterior(const SkyGrid& grid,
                                  std::span<const double> log_post,
                                  const SkyMapConfig& config) {
  SkyMap map;
  map.config_ = config;
  map.grid_ = grid;
  map.degenerate_ =
      !normalize_log_posterior(map.grid_, log_post, map.probability_);
  return map;
}

Vec3 SkyMap::peak() const {
  ADAPT_REQUIRE(!probability_.empty(), "peak of an empty map");
  const auto it =
      std::max_element(probability_.begin(), probability_.end());
  return grid_.pixel_center(
      static_cast<std::size_t>(std::distance(probability_.begin(), it)));
}

double SkyMap::credible_region_area_deg2(double content) const {
  ADAPT_REQUIRE(std::isfinite(content) && content > 0.0 && content < 1.0,
                "credible content in (0, 1)");
  ADAPT_REQUIRE(!probability_.empty(), "credible region of an empty map");
  // Greedy: add pixels in decreasing posterior density until the mass
  // target is met.
  std::vector<double> density(probability_.size());
  grid_.for_each_pixel_solid_angle([&](std::size_t i, double sa) {
    density[i] = probability_[i] / sa;
  });
  double area = 0.0;
  std::vector<std::size_t> heap;
  greedy_mass_cut(density, probability_, content, heap, [&](std::size_t i) {
    area += grid_.row_pixel_solid_angle_deg2(grid_.row_of(i));
  });
  return area;
}

double SkyMap::credible_radius_deg(double content) const {
  return std::sqrt(credible_region_area_deg2(content) / core::kPi);
}

double SkyMap::probability_at(const Vec3& direction) const {
  const auto pixel = grid_.pixel_of(direction);
  return pixel ? probability_[*pixel] : 0.0;
}

bool SkyMap::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "polar_deg,azimuth_deg,probability\n";
  for (std::size_t i = 0; i < probability_.size(); ++i) {
    const Vec3 dir = grid_.pixel_center(i);
    f << core::rad_to_deg(core::polar_of(dir)) << ','
      << core::rad_to_deg(core::azimuth_of(dir)) << ',' << probability_[i]
      << '\n';
  }
  return static_cast<bool>(f);
}

}  // namespace adapt::loc
