#include "loc/least_squares.hpp"

#include <cmath>
#include <vector>

#include "core/mat3.hpp"
#include "core/require.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {

using core::Mat3;
using core::Vec3;

std::optional<Vec3> fit_direction(std::span<const recon::ComptonRing> rings,
                                  std::span<const std::uint8_t> mask,
                                  const LeastSquaresConfig& config,
                                  std::optional<Vec3> initial) {
  ADAPT_REQUIRE(mask.empty() || mask.size() == rings.size(),
                "mask size must match ring count");

  // Copy the selected rings' axis, cosine and weight once; every pass
  // below reads this table.
  struct FitRow {
    Vec3 axis;
    double eta;
    double w;
  };
  std::vector<FitRow> rows;
  rows.reserve(rings.size());
  for (std::size_t i = 0; i < rings.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const auto& ring = rings[i];
    rows.push_back(FitRow{ring.axis, ring.eta, ring_weight(ring)});
  }
  if (rows.size() < 2) return std::nullopt;

  // Seed: the caller's guess, or the normalized unconstrained
  // minimizer of the normal equations (built only here).
  Vec3 s;
  if (initial) {
    s = initial->normalized();
  } else {
    Mat3 a = Mat3::zero();
    Vec3 b{};
    for (const FitRow& row : rows) {
      a += Mat3::outer(row.axis, row.axis) * row.w;
      b += row.axis * (row.w * row.eta);
    }
    Vec3 x;
    double damping = config.damping;
    bool ok = core::solve_damped(a, b, damping, x);
    while (!ok && damping < 1.0) {
      damping *= 100.0;
      ok = core::solve_damped(a, b, damping, x);
    }
    if (!ok || x.norm() < 1e-12) return std::nullopt;
    s = x.normalized();
  }

  // Tangent-plane Gauss-Newton.  For F(s) = sum w (c.s - eta)^2 the
  // gradient restricted to the sphere uses the projected axis
  // p_i = c_i - (c_i.s) s; the Gauss-Newton Hessian is sum w p p^T,
  // symmetric, so its 6 distinct entries are summed in ring order.
  for (int it = 0; it < config.max_iterations; ++it) {
    double hxx = 0.0, hxy = 0.0, hxz = 0.0, hyy = 0.0, hyz = 0.0, hzz = 0.0;
    Vec3 g{};
    for (const FitRow& row : rows) {
      const double cs = row.axis.dot(s);
      const Vec3 p = row.axis - s * cs;
      hxx += p.x * p.x * row.w;
      hxy += p.x * p.y * row.w;
      hxz += p.x * p.z * row.w;
      hyy += p.y * p.y * row.w;
      hyz += p.y * p.z * row.w;
      hzz += p.z * p.z * row.w;
      g += p * (row.w * (cs - row.eta));
    }
    Mat3 h;
    h.m = {hxx, hxy, hxz, hxy, hyy, hyz, hxz, hyz, hzz};
    Vec3 delta;
    // The Hessian is rank <= 2 (tangent plane); damping along s makes
    // the 3x3 solve well posed without biasing the tangent step.
    if (!core::solve_damped(h, -1.0 * g, config.damping + 1e-12, delta))
      return std::nullopt;
    delta -= s * delta.dot(s);  // Stay in the tangent plane.
    s = (s + delta).normalized();
    if (delta.norm() < config.step_tolerance) break;
  }
  return s;
}

}  // namespace adapt::loc
