#pragma once

/// \file likelihood.hpp
/// Probabilistic model tying Compton rings to a source direction.
///
/// Per the paper (footnote 1), each ring defines a radially symmetric
/// Gaussian probability density for the source direction, centered on
/// the cone c.s = eta with width d_eta in cosine space:
///
///   -log P(s | ring_i) = (c_i . s - eta_i)^2 / (2 d_eta_i^2) + const.
///
/// Localization maximizes the joint likelihood over all rings, i.e.
/// minimizes the weighted sum of squared cosine residuals.

#include <span>
#include <vector>

#include "core/vec3.hpp"
#include "recon/ring.hpp"

namespace adapt::loc {

/// True when the ring can be fed to the likelihood: finite axis and
/// eta, finite positive d_eta.  A NaN d_eta (or d_eta == 0 from an
/// upstream bug or a corrupt ring file) would otherwise turn every
/// residual — and hence the whole NLL surface — into garbage.
bool ring_usable(const recon::ComptonRing& ring);

/// The usable subset of `rings`.  When every ring is usable the input
/// span itself is returned and `storage` is untouched (the common case
/// costs one validation pass, no copy).  Dropped rings are counted in
/// the `loc.rings_rejected.bad_deta` / `loc.rings_rejected.non_finite`
/// telemetry counters by reason.
std::span<const recon::ComptonRing> usable_rings(
    std::span<const recon::ComptonRing> rings,
    std::vector<recon::ComptonRing>& storage);

/// Standardized residual of one ring for a candidate direction:
/// (c.s - eta) / d_eta.
double ring_residual(const recon::ComptonRing& ring, const core::Vec3& s);

/// Joint negative log-likelihood (up to the ring-independent constant)
/// of direction `s` for a set of rings.
double neg_log_likelihood(std::span<const recon::ComptonRing> rings,
                          const core::Vec3& s);

/// Outlier-robust variant: each ring's squared residual is capped at
/// `cap_sigma`^2, so rings far from the candidate (background or
/// mis-reconstructed — routinely 2-3x the signal) contribute a bounded
/// penalty instead of dominating the sum.  This is the score the
/// approximation stage and the multi-start selection use; without the
/// cap a candidate near the true source is out-voted by the quadratic
/// penalty of every background ring.
double truncated_neg_log_likelihood(std::span<const recon::ComptonRing> rings,
                                    const core::Vec3& s,
                                    double cap_sigma = 3.0);

/// Many-candidate form: out[k] is the truncated NLL of dirs[k], equal
/// bit for bit to the one-direction call.  Rings are walked once per
/// block of candidates; each candidate still sums its rings in ring
/// order with ring_residual's expression, so blocking changes the
/// speed, not the bits.  The one-direction form is this loop with a
/// single candidate.  out.size() must equal dirs.size().
void truncated_neg_log_likelihood(std::span<const recon::ComptonRing> rings,
                                  std::span<const core::Vec3> dirs,
                                  double cap_sigma, std::span<double> out);

/// The three ring fields the likelihood reads, packed: a scorer that
/// walks the rings once per candidate block streams 40 bytes per ring
/// instead of the whole ComptonRing.
struct ScoringRing {
  core::Vec3 axis;
  double eta = 0.0;
  double d_eta = 0.0;
};

std::vector<ScoringRing> scoring_table(
    std::span<const recon::ComptonRing> rings);

/// The many-candidate form over a packed table: the same sums, bit for
/// bit, as over the rings it was packed from.
void truncated_neg_log_likelihood(std::span<const ScoringRing> rings,
                                  std::span<const core::Vec3> dirs,
                                  double cap_sigma, std::span<double> out);

/// Per-ring Gaussian weight w = 1 / d_eta^2 used by the least-squares
/// normal equations.
double ring_weight(const recon::ComptonRing& ring);

}  // namespace adapt::loc
