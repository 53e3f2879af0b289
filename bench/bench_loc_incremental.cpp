/// \file bench_loc_incremental.cpp
/// Cost model of the streaming localizer: per-ring incremental update
/// and query cost of loc::IncrementalLocalizer versus a full per-pixel
/// batch recompute, across grid resolutions.
///
/// The point being demonstrated (and gated by
/// tools/check_timing_regression.sh against
/// tools/bench_loc_incremental.baseline.csv):
///   * the per-ring update touches only the ring's truncation band —
///     a near-constant pixel count per ring — so its cost is sublinear
///     in the grid size, while the batch recompute is O(pixels*rings);
///   * `inc_update_res<r>` must therefore stay below `batch_res<r>`
///     at every resolution (a machine-independent structural check).
///     `batch_res<r>` times the per-pixel scan SkyMap::compute ran
///     before it became the band fold, kept here as the timed
///     reference (the serial tests/loc/full_scan_oracle.hpp, the
///     oracle SkyMap's tests hold the fold to);
///   * `map_res<r>` times SkyMap::compute itself — the band fold of
///     the whole stream plus snapshot() — and is not gated;
///   * `touched/ring`, the candidate pixels a ring tests, is a count
///     fixed by the seeded stream, so it is gated exactly against the
///     baseline: a looser band enumeration shows there long before the
///     sub-microsecond update time moves past the timer floor;
///   * the 68% credible radius shrinks monotonically-ish with ring
///     count, which is what makes the serve-layer early alert
///     (`adaptctl flood --alert-deg`) useful;
///   * the serve-cadence row replays the serve path's load on one
///     thread: 256 localizers on the 2 deg grid fed interleaved, each
///     with a 68% radius check and a peak every 64 of its rings.  Its
///     `serve_update_res2.0` (per-ring add) and `serve_query_res2.0`
///     (per-check radius + peak) rows are gated like the others, and
///     its touched/ring exactly, like the inc_update rows.  It also
///     prints the rate of arc ranges sent to the exact acos fallback
///     (loc/arc_ranges.hpp) per 10^6 ranges built.
///
/// Scale knobs: ADAPT_LOC_BENCH_RINGS (default 400) rings per stream,
/// ADAPT_LOC_BENCH_REPS (default 3) repetitions per timed cell.  The
/// serve-cadence row always feeds 256 x 512 rings.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "loc/incremental.hpp"
#include "loc/full_scan_oracle.hpp"
#include "loc/skymap.hpp"

using namespace adapt;

namespace {

/// Source-consistent cone stream with a background admixture — the
/// same construction the flood alert mode feeds the streaming
/// localizer (flood.cpp), minus the detector-side fields the
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

/// One serve stream: a seeded source anywhere in the upper 70 deg,
/// rings consistent with it plus 25% uniform background, d_eta 0.05.
std::vector<recon::ComptonRing> serve_stream(std::uint64_t seed,
                                             std::size_t n) {
  core::Rng rng(seed);
  const core::Vec3 source =
      core::from_spherical(core::deg_to_rad(rng.uniform(0.0, 70.0)),
                           rng.uniform(-core::kPi, core::kPi));
  constexpr double d_eta = 0.05;
  std::vector<recon::ComptonRing> rings(n);
  for (recon::ComptonRing& ring : rings) {
    ring.axis = rng.isotropic_direction();
    ring.d_eta = d_eta;
    ring.eta = rng.uniform() < 0.25
                   ? rng.uniform(-1.0, 1.0)
                   : std::clamp(ring.axis.dot(source) +
                                    rng.normal(0.0, d_eta),
                                -1.0, 1.0);
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
      const loc::SkyMap batch_map = loc::full_scan_skymap(rings, bc);
      batch_ms += ms_since(t0);
      batch_radius = batch_map.credible_radius_deg(0.68);
    }
    batch_ms /= static_cast<double>(reps);

    // The batch map as shipped: the band fold of the whole stream.
    double map_ms = 0.0;
    double map_radius = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const loc::SkyMap map = loc::SkyMap::compute(rings, bc);
      map_ms += ms_since(t0);
      map_radius = map.credible_radius_deg(0.68);
    }
    map_ms /= static_cast<double>(reps);

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
    table.add_row({"map_res" + res_tag, core::TextTable::num(map_ms, 3),
                   core::TextTable::integer(static_cast<long long>(n_pixels)),
                   "-", core::TextTable::num(map_radius, 2)});
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
  // Serve cadence: interleaved localizers, a check every 64 rings.
  {
    constexpr std::size_t kLocalizers = 256;
    constexpr std::size_t kRingsEach = 512;
    constexpr std::size_t kCheckEvery = 64;
    loc::IncrementalConfig ic;
    ic.resolution_deg = 2.0;
    std::vector<std::vector<recon::ComptonRing>> streams;
    for (std::size_t l = 0; l < kLocalizers; ++l)
      streams.push_back(serve_stream(0x5e77e + l, kRingsEach));

    // Counting pass (untimed, telemetry on): touched/ring and the
    // exact-fallback rate per range built.  A ring builds one range
    // per coarse row and per refined fine row; a refinement replays
    // every stored ring over each newly refined fine row.
    namespace tm = core::telemetry;
    const bool was_enabled = tm::enabled();
    tm::set_enabled(true);
    tm::Counter& fallback_ctr =
        tm::counter("loc.incremental.arc_fallbacks");
    const std::uint64_t fallbacks_before = fallback_ctr.value();
    std::uint64_t ranges_built = 0;
    std::uint64_t touched = 0;
    {
      std::vector<loc::IncrementalLocalizer> locs(
          kLocalizers, loc::IncrementalLocalizer(ic));
      for (std::size_t i = 0; i < kRingsEach; ++i) {
        for (std::size_t l = 0; l < kLocalizers; ++l) {
          loc::IncrementalLocalizer& inc = locs[l];
          ranges_built += static_cast<std::uint64_t>(
              inc.coarse_grid().n_rows()) + inc.refined_fine_rows();
          inc.add_ring(streams[l][i]);
          if (i % kCheckEvery != kCheckEvery - 1) continue;
          const std::size_t refined = inc.refined_fine_rows();
          (void)inc.credible_radius_deg(0.68);
          (void)inc.peak();
          ranges_built += static_cast<std::uint64_t>(
              inc.refined_fine_rows() - refined) * inc.n_rings();
        }
      }
      for (const auto& inc : locs) touched += inc.pixels_touched_total();
    }
    const std::uint64_t fallbacks = fallback_ctr.value() - fallbacks_before;
    tm::set_enabled(was_enabled);

    double update_ms = 0.0;
    double query_ms = 0.0;
    double radius_sum = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      std::vector<loc::IncrementalLocalizer> locs(
          kLocalizers, loc::IncrementalLocalizer(ic));
      radius_sum = 0.0;
      for (std::size_t i = 0; i < kRingsEach; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t l = 0; l < kLocalizers; ++l)
          locs[l].add_ring(streams[l][i]);
        update_ms += ms_since(t0);
        if (i % kCheckEvery != kCheckEvery - 1) continue;
        const auto q0 = std::chrono::steady_clock::now();
        for (auto& inc : locs) {
          radius_sum += inc.credible_radius_deg(0.68);
          (void)inc.peak();
        }
        query_ms += ms_since(q0);
      }
    }
    const double n_rings_fed =
        static_cast<double>(kLocalizers * kRingsEach * reps);
    const double n_checks = static_cast<double>(
        kLocalizers * (kRingsEach / kCheckEvery) * reps);
    const double per_ring_ms = update_ms / n_rings_fed;
    const double per_check_ms = query_ms / n_checks;
    const auto n_pixels = static_cast<long long>(
        loc::SkyGrid(ic.resolution_deg, ic.max_polar_deg).n_pixels());
    const auto touched_per_ring = static_cast<long long>(
        touched / (kLocalizers * kRingsEach));
    table.add_row({"serve_update_res2.0", core::TextTable::num(per_ring_ms, 4),
                   core::TextTable::integer(n_pixels),
                   core::TextTable::integer(touched_per_ring), "-"});
    table.add_row({"serve_query_res2.0", core::TextTable::num(per_check_ms, 4),
                   core::TextTable::integer(n_pixels), "-",
                   core::TextTable::num(
                       radius_sum /
                           static_cast<double>(kLocalizers *
                                               (kRingsEach / kCheckEvery)),
                       2)});
    std::printf(
        "serve cadence (%zu localizers x %zu rings, 2.0 deg, check every "
        "%zu): %.3f us per ring, %.2f us per check, %lld touched/ring, "
        "%.2f exact fallbacks per 10^6 ranges (%llu of %llu)\n\n",
        kLocalizers, kRingsEach, kCheckEvery, per_ring_ms * 1e3,
        per_check_ms * 1e3, touched_per_ring,
        1e6 * static_cast<double>(fallbacks) /
            static_cast<double>(ranges_built),
        static_cast<unsigned long long>(fallbacks),
        static_cast<unsigned long long>(ranges_built));
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
