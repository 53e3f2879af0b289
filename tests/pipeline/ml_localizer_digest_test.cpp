#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/checksum.hpp"
#include "core/rng.hpp"
#include "pipeline/ml_localizer.hpp"
#include "serve/synthetic_models.hpp"

// Bit pin for the whole Fig. 6 loop: FNV-1a over each seeded burst's
// final direction bits, rings_kept, background_iterations and
// loop_converged from MlLocalizer::run with the seeded synthetic nets.
// The dEta net rewrites every survivor's width before the final
// refinement, so the direction bits move if the dEta step's forward
// moves a single bit; the background net decides which rings survive.
// The digests were recorded before any change to the inference layer
// they guard: a change that moves them changed localization output.

namespace adapt::pipeline {
namespace {

/// Signal rings around `s` (features drawn like the serve stream's
/// synthetic rings, then eta set from the true source) plus uniformly
/// placed background rings.
std::vector<recon::ComptonRing> contaminated_rings(const core::Vec3& s,
                                                   int n_signal,
                                                   int n_background,
                                                   std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<recon::ComptonRing> rings;
  while (static_cast<int>(rings.size()) < n_signal) {
    recon::ComptonRing r = serve::synthetic_ring(rng);
    r.eta = r.axis.dot(s) + rng.normal(0.0, r.d_eta * 0.25);
    if (r.eta < -1.0 || r.eta > 1.0) continue;
    r.origin = detector::Origin::kGrb;
    rings.push_back(r);
  }
  for (int i = 0; i < n_background; ++i) {
    recon::ComptonRing r = serve::synthetic_ring(rng);
    r.origin = detector::Origin::kBackground;
    rings.push_back(r);
  }
  return rings;
}

template <typename T>
void fold(core::Fnv1a64& h, const T& v) {
  h.update(&v, sizeof(v));
}

std::uint64_t burst_digest(BackgroundNet& background, DEtaNet& deta) {
  const Models models{&background, &deta};
  const MlLocalizer ml;
  core::Fnv1a64 h;
  for (std::uint64_t burst = 0; burst < 6; ++burst) {
    core::Rng pick(0xD16E57 + burst);
    const core::Vec3 s =
        core::from_spherical(pick.uniform(0.0, 1.2), pick.uniform(-3.1, 3.1));
    const int n_background = 60 + 20 * static_cast<int>(burst);
    const auto rings = contaminated_rings(s, 120, n_background, 0xB0257 + burst);
    core::Rng rng(0x5EED + burst);
    const MlLocalizationResult r = ml.run(rings, models, rng);
    fold(h, r.direction.x);
    fold(h, r.direction.y);
    fold(h, r.direction.z);
    fold(h, static_cast<std::uint64_t>(r.rings_kept));
    fold(h, static_cast<std::int64_t>(r.background_iterations));
    fold(h, static_cast<std::uint8_t>(r.loop_converged ? 1 : 0));
  }
  return h.digest();
}

void expect_digest(std::uint64_t observed, std::uint64_t pinned) {
  EXPECT_EQ(observed, pinned) << "observed 0x" << std::hex << observed;
}

TEST(MlLocalizerDigest, Fp32BackgroundWithDetaNet) {
  auto background = serve::synthetic_background_net(2401);
  auto deta = serve::synthetic_deta_net(2402);
  expect_digest(burst_digest(background, deta), 0xa1d2975b955c0185ULL);
}

TEST(MlLocalizerDigest, Int8BackgroundWithDetaNet) {
  auto background = serve::synthetic_background_net_int8(2403);
  auto deta = serve::synthetic_deta_net(2404);
  expect_digest(burst_digest(background, deta), 0x0a27d2f0bb435e07ULL);
}

}  // namespace
}  // namespace adapt::pipeline
