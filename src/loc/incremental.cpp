#include "loc/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {

using core::Vec3;

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

}  // namespace

IncrementalLocalizer::IncrementalLocalizer(const IncrementalConfig& config)
    : config_(config) {
  ADAPT_REQUIRE(config.resolution_deg > 0.0, "resolution must be positive");
  ADAPT_REQUIRE(config.max_polar_deg > 0.0 && config.max_polar_deg <= 180.0,
                "max polar out of range");
  ADAPT_REQUIRE(std::isfinite(config.truncation_sigma) &&
                    config.truncation_sigma > 0.0,
                "truncation sigma must be finite and positive");
  ADAPT_REQUIRE(config.coarse_factor >= 1, "coarse factor must be >= 1");
  ADAPT_REQUIRE(config.refine_mass_fraction > 0.0 &&
                    config.refine_mass_fraction <= 1.0,
                "refine mass fraction in (0, 1]");
  fine_ = SkyGrid(config.resolution_deg, config.max_polar_deg);
  coarse_ = SkyGrid(config.resolution_deg * config.coarse_factor,
                    config.max_polar_deg);
  coarse_excess_.assign(coarse_.n_pixels(), 0.0);
  coarse_refined_.assign(static_cast<std::size_t>(coarse_.n_rows()), 0);
  coarse_arcs_ = ArcRanges(static_cast<std::size_t>(coarse_.n_rows()));
  for (std::size_t row = 0;
       row < static_cast<std::size_t>(coarse_.n_rows()); ++row)
    coarse_arcs_.add_row(coarse_, row);
  fine_arcs_ = ArcRanges(static_cast<std::size_t>(fine_.n_rows()));
  replay_arcs_ = ArcRanges(static_cast<std::size_t>(config.coarse_factor));
}

std::size_t IncrementalLocalizer::fine_rows_of(std::size_t coarse_row,
                                               std::size_t& first) const {
  const auto factor = static_cast<std::size_t>(config_.coarse_factor);
  first = coarse_row * factor;
  const auto n_fine = static_cast<std::size_t>(fine_.n_rows());
  const std::size_t end = std::min(first + factor, n_fine);
  return end > first ? end - first : 0;
}

std::size_t IncrementalLocalizer::add_ring(const recon::ComptonRing& ring) {
  namespace tm = core::telemetry;
  static tm::Counter& rings_ctr = tm::counter("loc.incremental.rings");
  static tm::Counter& rejected_ctr =
      tm::counter("loc.incremental.rings_rejected");
  static tm::Histogram& update_ms =
      tm::histogram("loc.incremental.update_ms");
  static tm::Histogram& touched_hist =
      tm::histogram("loc.incremental.pixels_touched");

  if (!ring_usable(ring)) {
    ++rings_rejected_;
    rejected_ctr.add();
    return 0;
  }
  const tm::ScopedTimer timer(update_ms);
  const RingBand& band = rings_.emplace_back(
      RingBand{ring.axis, ring.eta, ring.d_eta,
               std::hypot(ring.axis.x, ring.axis.y),
               std::atan2(ring.axis.y, ring.axis.x)});
  const double sigma = config_.truncation_sigma;
  std::size_t touched =
      coarse_arcs_.fold(band, sigma, coarse_, coarse_excess_.data());
  if (fine_arcs_.size() > 0)
    touched += fine_arcs_.fold(band, sigma, fine_, fine_excess_.data());

  pixels_touched_ += touched;
  posterior_dirty_ = true;
  rings_ctr.add();
  touched_hist.record(static_cast<double>(touched));
  return touched;
}

std::size_t IncrementalLocalizer::add_rings(
    std::span<const recon::ComptonRing> rings) {
  std::size_t touched = 0;
  for (const auto& ring : rings) touched += add_ring(ring);
  return touched;
}

void IncrementalLocalizer::refine_coarse_row(std::size_t coarse_row) {
  if (coarse_refined_[coarse_row]) return;
  namespace tm = core::telemetry;
  static tm::Counter& refined_ctr =
      tm::counter("loc.incremental.rows_refined");
  std::size_t first = 0;
  const std::size_t count = fine_rows_of(coarse_row, first);
  // The fine excess is allocated at the first refinement; a row's
  // pixels stay +0.0 until its replay.
  if (fine_excess_.empty()) fine_excess_.assign(fine_.n_pixels(), 0.0);
  replay_arcs_.clear();
  for (std::size_t fr = first; fr < first + count; ++fr)
    replay_arcs_.add_row(fine_, fr);
  // Replay in arrival order so the sums are bit-identical to the
  // ones a from-the-start refined row would have accumulated.
  std::size_t touched = 0;
  if (count > 0) {
    for (const RingBand& band : rings_)
      touched += replay_arcs_.fold(band, config_.truncation_sigma, fine_,
                                   fine_excess_.data());
  }
  pixels_touched_ += touched;
  for (std::size_t fr = first; fr < first + count; ++fr) {
    fine_arcs_.add_row(fine_, fr);
    refined_ctr.add();
  }
  coarse_refined_[coarse_row] = 1;
  posterior_dirty_ = true;
}

void IncrementalLocalizer::ensure_posterior() {
  if (!posterior_dirty_) return;

  const auto n_coarse_rows = static_cast<std::size_t>(coarse_.n_rows());

  // Decide which coarse rows deserve full resolution: the smallest set
  // holding `refine_mass_fraction` of the coarse posterior mass, or
  // every row at 1.0 (refinement is monotone, so previously refined
  // rows stay).
  if (config_.refine_mass_fraction >= 1.0) {
    for (std::size_t cr = 0; cr < n_coarse_rows; ++cr)
      refine_coarse_row(cr);
  } else {
    normalize_log_posterior(coarse_, coarse_excess_, coarse_prob_);
    row_mass_.assign(n_coarse_rows, 0.0);
    for (std::size_t cr = 0; cr < n_coarse_rows; ++cr) {
      const std::size_t off = coarse_.row_offset(cr);
      const auto bins = static_cast<std::size_t>(coarse_.az_bins(cr));
      for (std::size_t b = 0; b < bins; ++b)
        row_mass_[cr] += coarse_prob_[off + b];
    }
    greedy_mass_cut(row_mass_, row_mass_, config_.refine_mass_fraction,
                    cut_heap_,
                    [this](std::size_t cr) { refine_coarse_row(cr); });
  }

  // Assemble the mixed posterior: refined rows contribute their fine
  // pixels, unrefined rows their coarse pixels, each row one copy of
  // its excess and one fill of its solid angle.
  fine_row_off_.assign(static_cast<std::size_t>(fine_.n_rows()), kNpos);
  coarse_row_off_.assign(n_coarse_rows, kNpos);
  std::size_t total = 0;
  for (std::size_t cr = 0; cr < n_coarse_rows; ++cr) {
    if (coarse_refined_[cr]) {
      std::size_t first = 0;
      const std::size_t count = fine_rows_of(cr, first);
      for (std::size_t fr = first; fr < first + count; ++fr) {
        fine_row_off_[fr] = total;
        total += static_cast<std::size_t>(fine_.az_bins(fr));
      }
    } else {
      coarse_row_off_[cr] = total;
      total += static_cast<std::size_t>(coarse_.az_bins(cr));
    }
  }
  mixed_value_.resize(total);
  mixed_sa_.resize(total);
  const auto place = [&](std::span<const double> excess, std::size_t off,
                         double sa) {
    std::copy(excess.begin(), excess.end(),
              mixed_value_.begin() + static_cast<std::ptrdiff_t>(off));
    std::fill_n(mixed_sa_.begin() + static_cast<std::ptrdiff_t>(off),
                excess.size(), sa);
  };
  for (std::size_t fr = 0; fr < fine_row_off_.size(); ++fr) {
    if (fine_row_off_[fr] != kNpos)
      place(fine_row_excess(fr), fine_row_off_[fr],
            fine_.row_pixel_solid_angle_deg2(fr));
  }
  for (std::size_t cr = 0; cr < n_coarse_rows; ++cr) {
    if (coarse_row_off_[cr] != kNpos)
      place({coarse_excess_.data() + coarse_.row_offset(cr),
             static_cast<std::size_t>(coarse_.az_bins(cr))},
            coarse_row_off_[cr], coarse_.row_pixel_solid_angle_deg2(cr));
  }

  // Stable softmax over the mixed entries with their solid-angle
  // weights; same degenerate semantics as normalize_log_posterior.
  mixed_prob_.assign(total, 0.0);
  double max_v = -std::numeric_limits<double>::infinity();
  bool any_finite = false;
  for (const double v : mixed_value_) {
    if (std::isfinite(v) && (!any_finite || v > max_v)) {
      max_v = v;
      any_finite = true;
    }
  }
  double norm = 0.0;
  if (any_finite) {
    for (std::size_t i = 0; i < total; ++i) {
      const double v = mixed_value_[i];
      const double m = std::isfinite(v)
                           ? shifted_exp(v - max_v) * mixed_sa_[i]
                           : 0.0;
      mixed_prob_[i] = m;
      norm += m;
    }
  }
  if (!(norm > 0.0) || !std::isfinite(norm)) {
    static auto& degenerate_ctr =
        core::telemetry::counter("loc.skymap.degenerate");
    degenerate_ctr.add();
    double total_sa = 0.0;
    for (const double sa : mixed_sa_) total_sa += sa;
    for (std::size_t i = 0; i < total; ++i)
      mixed_prob_[i] = mixed_sa_[i] / total_sa;
    degenerate_ = true;
  } else {
    for (double& p : mixed_prob_) p /= norm;
    degenerate_ = false;
  }
  posterior_dirty_ = false;
}

Vec3 IncrementalLocalizer::peak() {
  ensure_posterior();
  // The peak lives in the refined set by construction (the refined
  // rows hold >= refine_mass_fraction of the posterior, and mass per
  // pixel peaks where density does at near-equal pixel areas).
  double best = -1.0;
  std::size_t best_row = kNpos;
  std::size_t best_az = 0;
  for (std::size_t fr = 0; fr < fine_row_off_.size(); ++fr) {
    const std::size_t off = fine_row_off_[fr];
    if (off == kNpos) continue;
    const auto bins = static_cast<std::size_t>(fine_.az_bins(fr));
    for (std::size_t b = 0; b < bins; ++b) {
      if (mixed_prob_[off + b] > best) {
        best = mixed_prob_[off + b];
        best_row = fr;
        best_az = b;
      }
    }
  }
  if (best_row != kNpos) return fine_.pixel_center(best_row, best_az);
  // No refined row (can only happen with refine_mass_fraction so small
  // the first row already covers it and zero-mass coarse posterior):
  // fall back to the coarse argmax.
  const auto it = std::max_element(mixed_prob_.begin(), mixed_prob_.end());
  const auto mi =
      static_cast<std::size_t>(std::distance(mixed_prob_.begin(), it));
  for (std::size_t cr = 0; cr < coarse_row_off_.size(); ++cr) {
    const std::size_t off = coarse_row_off_[cr];
    if (off == kNpos) continue;
    const auto bins = static_cast<std::size_t>(coarse_.az_bins(cr));
    if (mi >= off && mi < off + bins)
      return coarse_.pixel_center(cr, mi - off);
  }
  return Vec3{0.0, 0.0, 1.0};
}

double IncrementalLocalizer::credible_region_area_deg2(double content) {
  ADAPT_REQUIRE(std::isfinite(content) && content > 0.0 && content < 1.0,
                "credible content in (0, 1)");
  namespace tm = core::telemetry;
  static tm::Histogram& query_ms = tm::histogram("loc.incremental.query_ms");
  const tm::ScopedTimer timer(query_ms);
  ensure_posterior();
  ADAPT_REQUIRE(!mixed_prob_.empty(), "credible region of an empty map");
  // Greedy density cut, like the batch map: posterior density is
  // monotone in the excess value, so cut on it directly.
  double area = 0.0;
  greedy_mass_cut(mixed_value_, mixed_prob_, content, cut_heap_,
                  [&](std::size_t i) { area += mixed_sa_[i]; });
  return area;
}

double IncrementalLocalizer::credible_radius_deg(double content) {
  return std::sqrt(credible_region_area_deg2(content) / core::kPi);
}

double IncrementalLocalizer::probability_at(const Vec3& direction) {
  ensure_posterior();
  const auto pixel = fine_.pixel_of(direction);
  if (!pixel) return 0.0;
  const std::size_t fr = fine_.row_of(*pixel);
  const std::size_t az = *pixel - fine_.row_offset(fr);
  if (fine_row_off_[fr] != kNpos)
    return mixed_prob_[fine_row_off_[fr] + az];
  // Unrefined row: approximate the fine pixel's mass by its share of
  // the coarse pixel under locally uniform density.
  const auto cpixel = coarse_.pixel_of(direction);
  if (!cpixel) return 0.0;
  const std::size_t cr = coarse_.row_of(*cpixel);
  const std::size_t caz = *cpixel - coarse_.row_offset(cr);
  if (coarse_row_off_[cr] == kNpos) return 0.0;
  return mixed_prob_[coarse_row_off_[cr] + caz] *
         fine_.row_pixel_solid_angle_deg2(fr) /
         coarse_.row_pixel_solid_angle_deg2(cr);
}

bool IncrementalLocalizer::degenerate() {
  ensure_posterior();
  return degenerate_;
}

SkyMap IncrementalLocalizer::snapshot() {
  for (std::size_t cr = 0;
       cr < static_cast<std::size_t>(coarse_.n_rows()); ++cr) {
    refine_coarse_row(cr);
  }
  return SkyMap::from_log_posterior(
      fine_, fine_excess_,
      SkyMapConfig{config_.resolution_deg, config_.truncation_sigma,
                   config_.max_polar_deg});
}

std::size_t IncrementalLocalizer::refined_fine_rows() const {
  std::size_t n = 0;
  for (std::size_t cr = 0; cr < coarse_refined_.size(); ++cr) {
    std::size_t first = 0;
    if (coarse_refined_[cr]) n += fine_rows_of(cr, first);
  }
  return n;
}

std::span<const double> IncrementalLocalizer::fine_row_excess(
    std::size_t row) const {
  if (!coarse_refined_[row / static_cast<std::size_t>(config_.coarse_factor)])
    return {};
  return {fine_excess_.data() + fine_.row_offset(row),
          static_cast<std::size_t>(fine_.az_bins(row))};
}

}  // namespace adapt::loc
