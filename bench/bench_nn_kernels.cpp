/// \file bench_nn_kernels.cpp
/// google-benchmark microbenchmarks for the computational kernels
/// behind the timing tables: FP32 inference of both paper networks,
/// the INT8 integer engine, the fused stack, reconstruction, and
/// localization.  These are the per-stage costs that Tables I/II
/// aggregate; run with --benchmark_filter=... to isolate one.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "eval/trial.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/mlp.hpp"
#include "quant/fuse.hpp"
#include "quant/quantized_mlp.hpp"

using namespace adapt;

namespace {

nn::Tensor random_features(std::size_t n, std::size_t d, std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Tensor x(n, d);
  for (auto& v : x.vec()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return x;
}

/// The paper's reference batch: 597 rings in the first background
/// network iteration.
constexpr std::size_t kPaperBatch = 597;

// ---------------------------------------------------------------------------
// Before/after kernel pairs.  The *Naive benchmarks reimplement the
// pre-optimization triple loops (the seed's matmul_abt and per-element
// integer inference), so `--benchmark_filter='Gemm|Int8Dot'` reports
// the blocked/fused speedup directly on this host.

/// The seed's matmul_abt: jam loops, column-strided B, one scalar
/// accumulator.
void naive_matmul_abt(const nn::Tensor& a, const nn::Tensor& b,
                      nn::Tensor& c) {
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  if (c.rows() != n || c.cols() != m) c = nn::Tensor(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t t = 0; t < k; ++t) acc += a(i, t) * b(j, t);
      c(i, j) = acc;
    }
}

void BM_GemmAbtNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto m = static_cast<std::size_t>(state.range(2));
  const nn::Tensor a = random_features(n, k, 21);
  const nn::Tensor b = random_features(m, k, 22);
  nn::Tensor c;
  for (auto _ : state) {
    naive_matmul_abt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * k * m));
}

void BM_GemmAbtBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto m = static_cast<std::size_t>(state.range(2));
  const nn::Tensor a = random_features(n, k, 21);
  const nn::Tensor b = random_features(m, k, 22);
  nn::Tensor c;
  for (auto _ : state) {
    nn::matmul_abt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * k * m));
}

// The background net's two heaviest layers (597x13 * 256x13^T and
// 597x256 * 128x256^T) plus a square stress shape.
#define GEMM_SHAPES \
  Args({kPaperBatch, 13, 256})->Args({kPaperBatch, 256, 128})->Args({256, 256, 256})
BENCHMARK(BM_GemmAbtNaive)->GEMM_SHAPES;
BENCHMARK(BM_GemmAbtBlocked)->GEMM_SHAPES;
#undef GEMM_SHAPES

/// Builds the calibrated INT8 background engine used by both INT8
/// benchmarks.
quant::QuantizedMlp build_int8_background_engine() {
  core::Rng rng(7);
  nn::Sequential swapped =
      nn::build_mlp(nn::background_net_spec(13, true), rng);
  for (int pass = 0; pass < 4; ++pass)
    (void)swapped.forward(random_features(64, 13, 8 + pass), true);
  const auto fused = quant::fuse_bn(swapped);
  core::Rng qrng(9);
  nn::Sequential qat = quant::build_qat_model(fused, qrng);
  for (int pass = 0; pass < 4; ++pass)
    (void)qat.forward(random_features(64, 13, 20 + pass), true);
  return quant::export_quantized(qat);
}

/// The seed's per-element integer inference: (q_x - zp) * q_w inside
/// the inner loop, per-layer activation buffers, per-element requant.
nn::Tensor naive_int8_forward(const std::vector<quant::QuantizedLayer>& layers,
                              const nn::Tensor& x) {
  const std::size_t n = x.rows();
  std::vector<std::uint8_t> act(n * layers.front().in_features);
  for (std::size_t i = 0; i < act.size(); ++i)
    act[i] = static_cast<std::uint8_t>(
        layers.front().input_q.quantize(x.vec()[i]));
  nn::Tensor out;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    const bool last = li + 1 == layers.size();
    std::vector<std::uint8_t> next(n * layer.out_features);
    if (last) out = nn::Tensor(n, layer.out_features);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t oc = 0; oc < layer.out_features; ++oc) {
        std::int32_t acc = layer.bias[oc];
        for (std::size_t ic = 0; ic < layer.in_features; ++ic)
          acc += (static_cast<std::int32_t>(act[r * layer.in_features + ic]) -
                  layer.input_q.zero_point) *
                 layer.weight[oc * layer.in_features + ic];
        if (layer.relu && acc < 0) acc = 0;
        const float real = static_cast<float>(acc) * layer.input_q.scale *
                           layer.weight_scales[oc];
        if (last)
          out(r, oc) = real;
        else
          next[r * layer.out_features + oc] = static_cast<std::uint8_t>(
              layers[li + 1].input_q.quantize(real));
      }
    act = std::move(next);
  }
  return out;
}

void BM_Int8DotNaive(benchmark::State& state) {
  const std::vector<quant::QuantizedLayer> layers =
      build_int8_background_engine().layers();
  const nn::Tensor x = random_features(kPaperBatch, 13, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_int8_forward(layers, x));
  }
  state.SetItemsProcessed(state.iterations() * kPaperBatch);
}
BENCHMARK(BM_Int8DotNaive);

void BM_Int8DotFused(benchmark::State& state) {
  const quant::QuantizedMlp engine = build_int8_background_engine();
  const nn::Tensor x = random_features(kPaperBatch, 13, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * kPaperBatch);
}
BENCHMARK(BM_Int8DotFused);

void BM_BackgroundNetFp32(benchmark::State& state) {
  core::Rng rng(1);
  nn::Sequential model = nn::build_mlp(nn::background_net_spec(13), rng);
  const nn::Tensor x =
      random_features(static_cast<std::size_t>(state.range(0)), 13, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BackgroundNetFp32)->Arg(64)->Arg(kPaperBatch);

void BM_DetaNetFp32(benchmark::State& state) {
  core::Rng rng(3);
  nn::Sequential model = nn::build_mlp(nn::deta_net_spec(13), rng);
  const nn::Tensor x =
      random_features(static_cast<std::size_t>(state.range(0)), 13, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetaNetFp32)->Arg(64)->Arg(kPaperBatch);

void BM_BackgroundNetFused(benchmark::State& state) {
  core::Rng rng(5);
  nn::Sequential swapped =
      nn::build_mlp(nn::background_net_spec(13, true), rng);
  for (int pass = 0; pass < 4; ++pass)
    (void)swapped.forward(random_features(64, 13, 6 + pass), true);
  const auto fused = quant::fuse_bn(swapped);
  const nn::Tensor x = random_features(kPaperBatch, 13, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::fused_forward(fused, x));
  }
  state.SetItemsProcessed(state.iterations() * kPaperBatch);
}
BENCHMARK(BM_BackgroundNetFused);

void BM_BackgroundNetInt8(benchmark::State& state) {
  const quant::QuantizedMlp engine = build_int8_background_engine();
  const nn::Tensor x = random_features(kPaperBatch, 13, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * kPaperBatch);
}
BENCHMARK(BM_BackgroundNetInt8);



void BM_Reconstruction(benchmark::State& state) {
  const eval::TrialSetup setup;
  const eval::TrialRunner runner(setup);
  // Pre-simulate one window's measured events, then time recon only.
  const detector::Geometry geometry(setup.geometry);
  const sim::ExposureSimulator simulator(geometry, setup.material,
                                         setup.readout);
  core::Rng rng(12);
  const sim::Exposure exposure =
      simulator.simulate(setup.grb, setup.background, rng);
  const recon::EventReconstructor reconstructor(setup.material,
                                                setup.reconstruction);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reconstructor.reconstruct_all(exposure.events));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(exposure.events.size()));
}
BENCHMARK(BM_Reconstruction);

void BM_Localization(benchmark::State& state) {
  const eval::TrialSetup setup;
  const eval::TrialRunner runner(setup);
  core::Rng rng(13);
  const auto rings = runner.reconstruct_window(rng);
  const loc::Localizer localizer;
  for (auto _ : state) {
    core::Rng loc_rng(14);
    benchmark::DoNotOptimize(localizer.localize(rings, loc_rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(rings.size()));
}
BENCHMARK(BM_Localization);

void BM_MonteCarloTransport(benchmark::State& state) {
  const detector::Geometry geometry;
  const auto material = detector::Material::csi();
  const physics::Transport transport(geometry, material);
  const sim::GrbSource source(sim::GrbConfig{}, geometry);
  core::Rng rng(15);
  for (auto _ : state) {
    const auto photon = source.sample_photon(rng);
    benchmark::DoNotOptimize(
        transport.propagate(photon.origin, photon.direction, photon.energy,
                            rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonteCarloTransport);

// ---------------------------------------------------------------------------
// Per-variant SIMD kernel benchmarks (src/nn/kernels).  Registered
// dynamically so only variants this host can execute appear; all use
// the production background-net panel shapes, so
// `--benchmark_filter=Kernel` pits scalar vs AVX2 vs AVX-512 directly.

/// One u8i8_gemm over the paper batch at one layer shape, weights
/// packed once outside the timed loop as the engine does.
void bench_u8i8_gemm(benchmark::State& state, nn::kernels::Isa isa,
                     std::size_t in, std::size_t out) {
  const nn::kernels::KernelSet& kset = nn::kernels::kernel_set(isa);
  const std::size_t rows = kPaperBatch;
  core::Rng rng(33);
  std::vector<std::uint8_t> x(rows * in);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_index(256));
  std::vector<std::int8_t> w(out * in);
  for (auto& v : w)
    v = static_cast<std::int8_t>(
        static_cast<int>(rng.uniform_index(255)) - 127);
  std::vector<std::int8_t> panel(nn::kernels::panel_bytes(in, out));
  nn::kernels::pack_panel(w.data(), in, out, panel.data());
  std::vector<std::int32_t> acc(rows * out);
  for (auto _ : state) {
    kset.u8i8_gemm(x.data(), panel.data(), acc.data(), rows, in, out);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}

void bench_u8_requant(benchmark::State& state, nn::kernels::Isa isa) {
  const nn::kernels::KernelSet& kset = nn::kernels::kernel_set(isa);
  const std::size_t rows = kPaperBatch, out = 256;
  core::Rng rng(34);
  std::vector<std::int32_t> acc(rows * out);
  for (auto& v : acc)
    v = static_cast<std::int32_t>(rng.uniform_index(2000001)) - 1000000;
  std::vector<std::int32_t> row_sums(out), bias(out);
  std::vector<float> ws(out);
  for (std::size_t i = 0; i < out; ++i) {
    row_sums[i] = static_cast<std::int32_t>(rng.uniform_index(8001)) - 4000;
    bias[i] = static_cast<std::int32_t>(rng.uniform_index(100001)) - 50000;
    ws[i] = static_cast<float>(rng.uniform(5e-4, 5e-3));
  }
  std::vector<std::uint8_t> dst(rows * out);
  for (auto _ : state) {
    kset.u8_requant(acc.data(), rows, out, 131, row_sums.data(), bias.data(),
                    /*relu=*/true, 0.0173f, ws.data(), 0.0211f, 97,
                    dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  // Elements per second: the epilogue cost scales with outputs.
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows * out));
}

void bench_f32_row_block(benchmark::State& state, nn::kernels::Isa isa) {
  const nn::kernels::KernelSet& kset = nn::kernels::kernel_set(isa);
  // One row band at the variant's own micro-tile height, as
  // gemm_rowmajor hands them out.
  const std::size_t rows = kset.f32_tile_rows, k = 256, j = 256;
  const nn::Tensor a = random_features(rows, k, 35);
  const nn::Tensor b = random_features(k, j, 36);
  std::vector<float> c(rows * j);
  for (auto _ : state) {
    kset.f32_row_block(a.data(), k, b.data(), j, c.data(), j, rows, k, 0, j);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(rows * k * j));
}

void register_kernel_variant_benchmarks() {
  namespace nk = nn::kernels;
  for (int i = 0; i < nk::kIsaCount; ++i) {
    const auto isa = static_cast<nk::Isa>(i);
    if (!nk::supported(isa)) continue;
    const std::string name = nk::kernel_set(isa).name;
    // The 256 -> 128 hidden layer, and the 13 -> 256 first layer whose
    // 13 inputs fill 16 of every 64 panel bytes.
    benchmark::RegisterBenchmark(
        ("BM_U8I8GemmKernel/" + name).c_str(),
        [isa](benchmark::State& s) { bench_u8i8_gemm(s, isa, 256, 128); });
    benchmark::RegisterBenchmark(
        ("BM_U8I8GemmKernel/" + name + "/13x256").c_str(),
        [isa](benchmark::State& s) { bench_u8i8_gemm(s, isa, 13, 256); });
    benchmark::RegisterBenchmark(
        ("BM_U8RequantKernel/" + name).c_str(),
        [isa](benchmark::State& s) { bench_u8_requant(s, isa); });
    benchmark::RegisterBenchmark(
        ("BM_F32RowBlockKernel/" + name).c_str(),
        [isa](benchmark::State& s) { bench_f32_row_block(s, isa); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_variant_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
