#pragma once

/// \file synthetic_models.hpp
/// Deterministic stand-in networks and event streams for serving
/// benches and tests.
///
/// The serve bench and the serve test suite need real forward
/// passes at the paper's layer dimensions, but training the actual
/// networks takes minutes — far too slow for a unit test or a bench
/// warm-up.  These builders produce networks with seeded random
/// weights at the exact paper architectures (background 13-256-128-64-1
/// with BatchNorm, dEta 13-8-16-8-1), so the compute cost per forward
/// is identical to the deployed models and every run is bit-for-bit
/// reproducible from the seed.  The INT8 variant assembles a
/// QuantizedMlp directly (seeded int8 weights) rather than running the
/// full QAT export, again for speed — the integer kernel exercised is
/// the production one.

#include <cstdint>

#include "core/rng.hpp"
#include "pipeline/models.hpp"
#include "recon/ring.hpp"

namespace adapt::serve {

/// FP32 background classifier (paper architecture, BatchNorm blocks)
/// with seeded weights, a deterministic standardizer, and non-trivial
/// per-bin polar thresholds.
pipeline::BackgroundNet synthetic_background_net(std::uint64_t seed);

/// INT8 background classifier: a QuantizedMlp at the same dimensions
/// with seeded int8 weights, driving the production integer kernel.
pipeline::BackgroundNet synthetic_background_net_int8(std::uint64_t seed);

/// dEta regressor (paper architecture) with seeded weights.
pipeline::DEtaNet synthetic_deta_net(std::uint64_t seed);

/// One plausible reconstructed ring: finite features in the ranges the
/// detector produces, so the feature extractor's finiteness contracts
/// hold and the standardizer sees realistic spreads.
recon::ComptonRing synthetic_ring(core::Rng& rng);

}  // namespace adapt::serve
