#include "loc/skymap.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/contract.hpp"
#include "core/units.hpp"
#include "loc/incremental.hpp"

namespace adapt::loc {

using core::Vec3;

SkyMap SkyMap::compute(std::span<const recon::ComptonRing> rings,
                       const SkyMapConfig& config) {
  // The band fold is the one posterior engine: the localizer checks
  // the config, rejects unusable rings, and snapshot() refines every
  // row, so the map is the full-resolution posterior.
  IncrementalConfig ic;
  ic.resolution_deg = config.resolution_deg;
  ic.truncation_sigma = config.truncation_sigma;
  ic.max_polar_deg = config.max_polar_deg;
  IncrementalLocalizer fold(ic);
  fold.add_rings(rings);
  return fold.snapshot();
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
