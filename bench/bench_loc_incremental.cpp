/// \file bench_loc_incremental.cpp
/// Cost model of the streaming localizer: per-ring incremental update
/// and query cost of loc::IncrementalLocalizer versus a full batch
/// SkyMap::compute, across grid resolutions.
///
/// The point being demonstrated (and gated by
/// tools/check_timing_regression.sh against
/// tools/bench_loc_incremental.baseline.csv):
///   * the per-ring update touches only the ring's truncation band —
///     a near-constant pixel count per ring — so its cost is sublinear
///     in the grid size, while the batch recompute is O(pixels*rings);
///   * `inc_update_res<r>` must therefore stay below `batch_res<r>`
///     at every resolution (a machine-independent structural check);
///   * `touched/ring`, the candidate pixels a ring tests, is a count
///     fixed by the seeded stream, so it is gated exactly against the
///     baseline: a looser band enumeration shows there long before the
///     sub-microsecond update time moves past the timer floor;
///   * the 68% credible radius shrinks monotonically-ish with ring
///     count, which is what makes the serve-layer early alert
///     (`adaptctl serve-bench --alert-deg`) useful.
///
/// Scale knobs: ADAPT_LOC_BENCH_RINGS (default 400) rings per stream,
/// ADAPT_LOC_BENCH_REPS (default 3) repetitions per timed cell.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "loc/incremental.hpp"
#include "loc/skymap.hpp"

using namespace adapt;

namespace {

/// Source-consistent cone stream with a background admixture — the
/// same construction the serve-bench alert mode feeds the streaming
/// localizer (throughput.cpp), minus the detector-side fields the
/// localizer never reads.
std::vector<recon::ComptonRing> make_rings(std::size_t n) {
  core::Rng rng(0x10c);
  const core::Vec3 source = core::from_spherical(
      core::deg_to_rad(35.0), core::deg_to_rad(120.0));
  constexpr double d_eta = 0.05;
  std::vector<recon::ComptonRing> rings(n);
  for (recon::ComptonRing& ring : rings) {
    ring.axis = rng.isotropic_direction();
    ring.d_eta = d_eta;
    if (rng.uniform() < 0.25) {
      ring.eta = rng.uniform(-1.0, 1.0);
    } else {
      ring.eta = std::clamp(ring.axis.dot(source) +
                                rng.normal(0.0, d_eta),
                            -1.0, 1.0);
    }
  }
  return rings;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const std::size_t n_rings = eval::env_size("ADAPT_LOC_BENCH_RINGS", 400);
  const std::size_t reps = eval::env_size("ADAPT_LOC_BENCH_REPS", 3);
  std::printf("=== incremental localizer cost model ===\n");
  std::printf(
      "stream: %zu rings (source-consistent + 25%% background), "
      "%zu reps per cell\n\n",
      n_rings, reps);

  const std::vector<recon::ComptonRing> rings = make_rings(n_rings);
  const double resolutions[] = {2.0, 1.0, 0.5};

  core::TextTable table(
      {"case", "mean_ms", "n_pixels", "touched/ring", "radius68_deg"});
  for (const double res : resolutions) {
    loc::SkyMapConfig bc;
    bc.resolution_deg = res;

    // Batch recompute: the cost an arriving ring pays if the whole
    // posterior is re-evaluated (what the serve layer would do without
    // the accumulator).
    double batch_ms = 0.0;
    double batch_radius = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const loc::SkyMap batch_map = loc::SkyMap::compute(rings, bc);
      batch_ms += ms_since(t0);
      batch_radius = batch_map.credible_radius_deg(0.68);
    }
    batch_ms /= static_cast<double>(reps);

    // Incremental: mean per-ring add cost over the whole stream.
    double add_ms = 0.0;
    double query_ms = 0.0;
    std::size_t touched = 0;
    std::size_t n_pixels = 0;
    double radius = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      loc::IncrementalConfig ic;
      ic.resolution_deg = res;
      loc::IncrementalLocalizer inc(ic);
      const auto t0 = std::chrono::steady_clock::now();
      inc.add_rings(rings);
      add_ms += ms_since(t0) / static_cast<double>(rings.size());
      // Query cost with a dirty posterior: one more ring, then the
      // 68% radius (rebuild + greedy cut) — the serve layer's
      // per-check cost.
      inc.add_ring(rings.front());
      const auto q0 = std::chrono::steady_clock::now();
      radius = inc.credible_radius_deg(0.68);
      query_ms += ms_since(q0);
      touched = inc.pixels_touched_total() / (rings.size() + 1);
      n_pixels = inc.fine_grid().n_pixels();
    }
    add_ms /= static_cast<double>(reps);
    query_ms /= static_cast<double>(reps);

    const auto res_tag = core::TextTable::num(res, 1);
    table.add_row({"batch_res" + res_tag, core::TextTable::num(batch_ms, 3),
                   core::TextTable::integer(static_cast<long long>(n_pixels)),
                   "-", core::TextTable::num(batch_radius, 2)});
    table.add_row({"inc_update_res" + res_tag,
                   core::TextTable::num(add_ms, 3),
                   core::TextTable::integer(static_cast<long long>(n_pixels)),
                   core::TextTable::integer(static_cast<long long>(touched)),
                   "-"});
    table.add_row({"inc_query_res" + res_tag,
                   core::TextTable::num(query_ms, 3),
                   core::TextTable::integer(static_cast<long long>(n_pixels)),
                   "-", core::TextTable::num(radius, 2)});
  }
  table.print(std::cout, "Batch recompute vs incremental update (mean ms)");
  table.write_csv("bench_loc_incremental.csv");

  // Containment-radius trajectory at the serve-layer's resolution:
  // the early-alert signal the streaming localizer watches.
  std::printf("\n68%% credible radius vs rings fed (1.0 deg grid):\n");
  loc::IncrementalLocalizer traj(loc::IncrementalConfig{});
  std::size_t next_mark = 25;
  for (std::size_t i = 0; i < rings.size(); ++i) {
    traj.add_ring(rings[i]);
    if (i + 1 == next_mark || i + 1 == rings.size()) {
      // Query first: the radius query triggers refinement, which the
      // refined-rows count should reflect.
      const double r68 = traj.credible_radius_deg(0.68);
      std::printf("  %4zu rings: %6.2f deg (%zu fine rows refined)\n",
                  i + 1, r68, traj.refined_fine_rows());
      next_mark *= 2;
    }
  }
  return 0;
}
