#pragma once

/// \file full_scan_oracle.hpp
/// The per-pixel scan SkyMap::compute ran before it became the band
/// fold, kept as the oracle the fold is held to: every usable ring's
/// truncated NLL at every pixel centre, normalized like any map.  Its
/// values are the old compute()'s bit for bit (each pixel was computed
/// independently there too), which SkyMapDigest pins.

#include <span>
#include <vector>

#include "loc/likelihood.hpp"
#include "loc/skymap.hpp"

namespace adapt::loc {

inline SkyMap full_scan_skymap(std::span<const recon::ComptonRing> rings,
                               const SkyMapConfig& config = {}) {
  std::vector<recon::ComptonRing> storage;
  const auto usable = usable_rings(rings, storage);
  const SkyGrid grid(config.resolution_deg, config.max_polar_deg);
  std::vector<double> log_post(grid.n_pixels());
  for (std::size_t i = 0; i < log_post.size(); ++i)
    log_post[i] = -truncated_neg_log_likelihood(usable, grid.pixel_center(i),
                                                config.truncation_sigma);
  return SkyMap::from_log_posterior(grid, log_post, config);
}

}  // namespace adapt::loc
