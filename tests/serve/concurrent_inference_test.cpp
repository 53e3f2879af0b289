#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "pipeline/models.hpp"
#include "quant/qat_linear.hpp"
#include "serve/synthetic_models.hpp"

// Inference on a SHARED model from concurrent threads must be safe and
// deterministic: forward(training=false) may not write any member
// state.  These tests are the TSan targets for the fixes in
// BatchNorm1d (member inference scratch), QatLinear (unconditional
// weight-cache write), and QuantizedMlp (now thread_local ping-pong
// buffers).  Run under the static-analysis gate's TSan stage; without
// -fsanitize=thread they still verify results match the
// single-threaded reference.

namespace adapt::serve {
namespace {

constexpr std::size_t kThreads = 4;
constexpr int kRepeats = 8;

struct Stream {
  std::vector<recon::ComptonRing> rings;
  std::vector<double> polar;
};

Stream make_stream(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  Stream s;
  for (std::size_t i = 0; i < n; ++i) {
    s.rings.push_back(synthetic_ring(rng));
    s.polar.push_back(rng.uniform(0.0, 90.0));
  }
  return s;
}

using Outputs = pipeline::Models::BatchInference;

/// The router workers' call: one fused forward over the batch.
Outputs infer(const pipeline::Models& models, const Stream& s) {
  return models.infer_batch(s.rings, s.polar);
}

void expect_same(const Outputs& a, const Outputs& b) {
  EXPECT_EQ(a.is_background, b.is_background);
  EXPECT_EQ(a.d_eta, b.d_eta);
}

template <typename Fn>
void run_concurrently(Fn&& fn) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&fn, t] { fn(t); });
  for (std::thread& t : threads) t.join();
}

TEST(ConcurrentInference, SharedFp32BackgroundNetWithBatchNorm) {
  // build_mlp's default blocks start with BatchNorm1d — the layer
  // whose inference scratch used to be a member.  The dEta net beside
  // it is the same FP32 stack with a continuous output, so a bled
  // activation shows in d_eta even where no decision flips.  Each
  // thread cycles
  // through batch widths 1, 24 and 617 (from a different starting
  // width per thread), so the fused forward's thread_local ping/pong
  // panels grow and get reused at other widths while other threads
  // do the same — the cross-width guard QuantizedMlp's panels have.
  auto net = synthetic_background_net(61);
  auto deta = synthetic_deta_net(66);
  const pipeline::Models models{&net, &deta};
  const std::vector<Stream> widths = {make_stream(1, 1), make_stream(24, 11),
                                      make_stream(617, 21)};
  std::vector<Outputs> references;
  for (const Stream& s : widths) references.push_back(infer(models, s));

  run_concurrently([&](std::size_t t) {
    for (int i = 0; i < kRepeats; ++i) {
      const std::size_t w = (t + static_cast<std::size_t>(i)) % widths.size();
      expect_same(infer(models, widths[w]), references[w]);
    }
  });
}

TEST(ConcurrentInference, SharedInt8Engine) {
  auto net = synthetic_background_net_int8(62);
  const pipeline::Models models{&net, nullptr};
  const Stream s = make_stream(24, 2);
  const Outputs reference = infer(models, s);

  run_concurrently([&](std::size_t) {
    for (int i = 0; i < kRepeats; ++i) expect_same(infer(models, s), reference);
  });
}

TEST(ConcurrentInference, SharedDEtaNet) {
  auto net = synthetic_deta_net(63);
  const pipeline::Models models{nullptr, &net};
  const Stream s = make_stream(24, 3);
  const Outputs reference = infer(models, s);

  run_concurrently([&](std::size_t) {
    for (int i = 0; i < kRepeats; ++i) expect_same(infer(models, s), reference);
  });
}

TEST(ConcurrentInference, SharedQatLinearInferenceForward) {
  core::Rng rng(64);
  quant::QatLinear layer(8, 4, rng);
  nn::Tensor x(16, 8);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.vec()[i] = static_cast<float>(rng.normal());
  const nn::Tensor reference = layer.forward(x, /*training=*/false);

  run_concurrently([&](std::size_t) {
    for (int i = 0; i < kRepeats; ++i) {
      const nn::Tensor y = layer.forward(x, /*training=*/false);
      ASSERT_EQ(y.size(), reference.size());
      for (std::size_t k = 0; k < y.size(); ++k)
        EXPECT_EQ(y.vec()[k], reference.vec()[k]);
    }
  });
}

// Distinct polar guesses per thread: concurrent callers with
// DIFFERENT inputs must not bleed into each other (the failure mode a
// shared scratch buffer produces).
// Each thread also interleaves batch widths 1, 24 and 617, so one
// thread's panel resize never lands in another thread's activations.
// The polar-aware dEta net turns a bled polar column into a d_eta
// change.
TEST(ConcurrentInference, DistinctInputsDoNotBleed) {
  auto net = synthetic_background_net(65);
  auto deta = synthetic_deta_net(67);
  const pipeline::Models models{&net, &deta};
  const std::vector<std::size_t> kWidths = {1, 24, 617};
  const Stream s = make_stream(kWidths.back(), 4);

  // references[t][w]: thread t's polar guess on the first kWidths[w]
  // rings.
  std::vector<std::vector<Outputs>> references(kThreads);
  std::vector<std::vector<double>> polar_sets(kThreads);
  const auto run = [&](std::size_t t, std::size_t w) {
    return models.infer_batch(
        std::span<const recon::ComptonRing>(s.rings).first(kWidths[w]),
        std::span<const double>(polar_sets[t]).first(kWidths[w]));
  };
  for (std::size_t t = 0; t < kThreads; ++t) {
    polar_sets[t].assign(s.rings.size(),
                         5.0 + 20.0 * static_cast<double>(t));
    for (std::size_t w = 0; w < kWidths.size(); ++w)
      references[t].push_back(run(t, w));
  }

  run_concurrently([&](std::size_t t) {
    for (int i = 0; i < kRepeats; ++i) {
      const std::size_t w = (t + static_cast<std::size_t>(i)) % kWidths.size();
      expect_same(run(t, w), references[t][w]);
    }
  });
}

}  // namespace
}  // namespace adapt::serve
