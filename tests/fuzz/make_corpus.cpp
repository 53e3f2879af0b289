/// \file make_corpus.cpp
/// Regenerates the checked-in seed corpus under tests/fuzz/corpus/.
/// Each seed is a small but structurally complete valid file for its
/// format — valid seeds matter because mutation-based fuzzing only
/// reaches deep parser states (checksum-passing bodies, layer loops,
/// metadata blocks) by perturbing inputs that get there.
///
///   make_fuzz_corpus OUT_DIR
///
/// writes OUT_DIR/{nn_model,rings}/seed_*.bin.  The model seeds cover
/// both layer families of the one model format: seed_full / seed_minimal
/// hold FP32 stacks, seed_qat_full / seed_qat_minimal calibrated QAT
/// stacks.  Output is deterministic (fixed Rng seeds), so regeneration
/// is diff-clean unless a format actually changed — which is exactly
/// when the corpus SHOULD change, alongside the format version bump.
/// The fuzz-smoke stage of tools/check_static_analysis.sh regenerates
/// the corpus and fails on any diff against the checked-in one.

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "core/rng.hpp"
#include "eval/dataset_gen.hpp"
#include "eval/ring_io.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/data.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qat_linear.hpp"
#include "quant/serialize.hpp"

namespace {

namespace fs = std::filesystem;
using namespace adapt;

bool write_nn_seeds(const fs::path& dir) {
  core::Rng rng(1);

  // Seed 1: full stack — standardizer, linear/bn/relu/sigmoid, metadata.
  {
    nn::Sequential model;
    model.add(std::make_unique<nn::Linear>(4, 8, rng));
    model.add(std::make_unique<nn::BatchNorm1d>(8));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Linear>(8, 1, rng));
    model.add(std::make_unique<nn::Sigmoid>());
    nn::Standardizer standardizer;
    standardizer.set({0.1f, 0.2f, 0.3f, 0.4f}, {1.0f, 2.0f, 3.0f, 4.0f});
    const std::map<std::string, double> metadata = {
        {"threshold.bin0", 0.5}, {"epochs", 12.0}};
    if (!quant::save_model(model, standardizer, metadata,
                           (dir / "seed_full.bin").string()))
      return false;
  }

  // Seed 2: minimal — one linear, no standardizer, no metadata.
  {
    nn::Sequential model;
    model.add(std::make_unique<nn::Linear>(2, 2, rng));
    if (!quant::save_model(model, nn::Standardizer{}, {},
                           (dir / "seed_minimal.bin").string()))
      return false;
  }
  return true;
}

bool write_qat_seeds(const fs::path& dir) {
  core::Rng rng(2);

  // Seed 1: calibrated QAT stack with standardizer and metadata.
  {
    nn::Sequential model;
    auto fq_in = std::make_unique<quant::FakeQuant>();
    fq_in->set_range(-1.5f, 2.5f);
    model.add(std::move(fq_in));
    model.add(std::make_unique<quant::QatLinear>(3, 4, rng));
    model.add(std::make_unique<nn::ReLU>());
    auto fq_out = std::make_unique<quant::FakeQuant>();
    fq_out->set_range(0.0f, 6.0f);
    model.add(std::move(fq_out));
    nn::Standardizer standardizer;
    standardizer.set({1.0f, 2.0f, 3.0f}, {0.5f, 0.25f, 0.125f});
    const std::map<std::string, double> metadata = {{"calib.batches", 32.0}};
    if (!quant::save_model(model, standardizer, metadata,
                           (dir / "seed_qat_full.bin").string()))
      return false;
  }

  // Seed 2: minimal — a lone QatLinear.
  {
    nn::Sequential model;
    model.add(std::make_unique<quant::QatLinear>(2, 1, rng));
    if (!quant::save_model(model, nn::Standardizer{}, {},
                           (dir / "seed_qat_minimal.bin").string()))
      return false;
  }
  return true;
}

bool write_ring_seeds(const fs::path& dir) {
  core::Rng rng(3);

  eval::GeneratedRings rings;
  for (int i = 0; i < 4; ++i) {
    recon::ComptonRing r;
    r.axis = rng.isotropic_direction();
    r.eta = rng.uniform(-0.9, 0.9);
    r.d_eta = rng.uniform(0.01, 0.2);
    r.e_total = rng.uniform(0.2, 5.0);
    r.sigma_e_total = 0.05;
    r.hit1 = recon::RingHit{rng.uniform_disk(10.0), 0.3, {0.1, 0.1, 0.1},
                            0.02};
    r.hit2 = recon::RingHit{rng.uniform_disk(10.0), 0.7, {0.1, 0.1, 0.1},
                            0.02};
    r.order_chi2 = rng.uniform(0.0, 2.0);
    r.true_direction = rng.isotropic_direction();
    r.n_hits = 2 + static_cast<int>(rng.uniform_index(3));
    r.origin = (i % 2 == 0) ? detector::Origin::kGrb
                            : detector::Origin::kBackground;
    rings.rings.push_back(r);
    rings.polar_degs.push_back(rng.uniform(0.0, 60.0));
    rings.true_sources.push_back(rng.isotropic_direction());
  }
  if (!eval::save_rings(rings, (dir / "seed_four.bin").string())) return false;

  eval::GeneratedRings empty;
  return eval::save_rings(empty, (dir / "seed_empty.bin").string());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const fs::path out_dir = argv[1];
  const fs::path nn_dir = out_dir / "nn_model";
  const fs::path ring_dir = out_dir / "rings";
  std::error_code ec;
  fs::create_directories(nn_dir, ec);
  fs::create_directories(ring_dir, ec);

  if (!write_nn_seeds(nn_dir) || !write_qat_seeds(nn_dir) ||
      !write_ring_seeds(ring_dir)) {
    std::fprintf(stderr, "make_fuzz_corpus: a seed failed to serialize\n");
    return 1;
  }
  std::printf("make_fuzz_corpus: corpus written under %s\n",
              out_dir.string().c_str());
  return 0;
}
