#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "nn/mlp.hpp"
#include "quant/fuse.hpp"
#include "quant/quantized_mlp.hpp"
#include "quant/serialize.hpp"
#include "serve/stream_router.hpp"
#include "serve/synthetic_models.hpp"
#include "temp_path.hpp"

namespace adapt::fault {
namespace {

recon::ComptonRing make_ring(core::Rng& rng) {
  return serve::synthetic_ring(rng);
}

TEST(Injector, SameSeedSameDecisionStreamAndLedger) {
  Injector a(42), b(42);
  core::Rng ring_a(7), ring_b(7);
  std::vector<int> decisions_a, decisions_b;
  for (int i = 0; i < 500; ++i) {
    recon::ComptonRing ra = make_ring(ring_a);
    recon::ComptonRing rb = make_ring(ring_b);
    decisions_a.push_back(a.maybe_corrupt_ring(ra, 0.3) ? 1 : 0);
    decisions_b.push_back(b.maybe_corrupt_ring(rb, 0.3) ? 1 : 0);
    decisions_a.push_back(static_cast<int>(a.next_queue_fault(0.1, 0.1)));
    decisions_b.push_back(static_cast<int>(b.next_queue_fault(0.1, 0.1)));
  }
  EXPECT_EQ(decisions_a, decisions_b);
  EXPECT_EQ(a.ledger(), b.ledger());
  EXPECT_GT(a.ledger().total_injected(), 0u);
}

TEST(Injector, CorruptedRingIsNeverAdmissible) {
  // Every corruption kind must violate ingress validation, otherwise a
  // ring-field injection could slip through undetected and unbalance
  // the ledger.
  Injector inj(9);
  core::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    recon::ComptonRing ring = make_ring(rng);
    ASSERT_TRUE(serve::ring_admissible(ring, 30.0));
    ASSERT_TRUE(inj.maybe_corrupt_ring(ring, 1.0));
    EXPECT_FALSE(serve::ring_admissible(ring, 30.0)) << "i=" << i;
  }
  EXPECT_EQ(inj.ledger().injected[static_cast<std::size_t>(
                FaultClass::kRingField)],
            200u);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A calibrated QAT stack at the background-net architecture, built the
/// way the export pipeline builds one (build_mlp -> fuse_bn ->
/// build_qat_model -> calibration forwards), so the QAT file under
/// test is structurally real.
nn::Sequential calibrated_qat_model(std::uint64_t seed) {
  const auto batch = [](std::uint64_t s) {
    core::Rng rng(s);
    nn::Tensor x(64, 13);
    for (auto& v : x.vec()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    return x;
  };
  core::Rng rng(seed);
  nn::Sequential fp32 = nn::build_mlp(nn::background_net_spec(13, true), rng);
  for (std::uint64_t pass = 0; pass < 4; ++pass)
    (void)fp32.forward(batch(seed + 1 + pass), true);
  core::Rng qrng(seed + 99);
  nn::Sequential qat = quant::build_qat_model(quant::fuse_bn(fp32), qrng);
  for (std::uint64_t pass = 0; pass < 4; ++pass)
    (void)qat.forward(batch(seed + 50 + pass), true);
  return qat;
}

TEST(Injector, GarbledModelBytesAlwaysRejectedByLoader) {
  // Both layer families through the one loader: the FP32 stack of a
  // dEta net and a calibrated QAT stack.
  const std::string fp32_path =
      test::temp_path("adaptml_injector_garble_test", ".adnn");
  const std::string qat_path =
      test::temp_path("adaptml_injector_garble_test_qat", ".adnn");
  pipeline::DEtaNet net = serve::synthetic_deta_net(5);
  ASSERT_TRUE(net.save(fp32_path));
  ASSERT_TRUE(quant::load_model(fp32_path).has_value());
  nn::Sequential qat = calibrated_qat_model(6);
  ASSERT_TRUE(quant::save_model(qat, nn::Standardizer{}, {{"fixture", 1.0}},
                                qat_path));
  ASSERT_TRUE(quant::load_model(qat_path).has_value());

  Injector inj(17);
  for (const std::string& path : {fp32_path, qat_path}) {
    const std::string pristine = read_file(path);
    ASSERT_FALSE(pristine.empty()) << path;
    for (int i = 0; i < 8; ++i) {
      const std::string garbled = inj.garble_bytes(pristine);
      ASSERT_NE(garbled, pristine) << path << " i=" << i;
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(garbled.data(), static_cast<std::streamsize>(garbled.size()));
      out.close();
      EXPECT_FALSE(quant::load_model(path).has_value())
          << path << " i=" << i;
    }
  }
  EXPECT_EQ(inj.ledger().injected[static_cast<std::size_t>(
                FaultClass::kModelBytes)],
            16u);
  std::remove(fp32_path.c_str());
  std::remove(qat_path.c_str());
}

TEST(Injector, Int8BitFlipChangesChecksumAndFlipBackRestoresIt) {
  pipeline::BackgroundNet net = serve::synthetic_background_net_int8(21);
  ASSERT_NE(net.int8_model(), nullptr);
  const std::uint64_t pristine = net.weight_checksum();

  Injector inj(3);
  const Injector::BitFlip flip = inj.flip_int8_weight_bit(*net.int8_model());
  EXPECT_NE(net.weight_checksum(), pristine);

  Injector::flip_back(*net.int8_model(), flip);
  EXPECT_EQ(net.weight_checksum(), pristine);
  EXPECT_EQ(inj.ledger().injected[static_cast<std::size_t>(
                FaultClass::kWeightBit)],
            1u);
}

TEST(Injector, Fp32CorruptionChangesChecksumAndSnapshotRestoresIt) {
  pipeline::DEtaNet net = serve::synthetic_deta_net(22);
  const std::uint64_t pristine = net.weight_checksum();
  const auto snapshot = net.model()->snapshot_weights();

  Injector inj(4);
  inj.corrupt_fp32_weight(*net.model());
  EXPECT_NE(net.weight_checksum(), pristine);

  net.model()->restore_weights(snapshot);
  EXPECT_EQ(net.weight_checksum(), pristine);
}

TEST(Injector, ArmedFailuresThrowExactlyAsArmed) {
  Injector inj(8);
  inj.arm_transient(2);
  EXPECT_THROW(inj.on_forward_attempt(4), InjectedFault);
  EXPECT_THROW(inj.on_forward_attempt(4), InjectedFault);
  EXPECT_NO_THROW(inj.on_forward_attempt(4));

  const auto transient =
      static_cast<std::size_t>(FaultClass::kForwardTransient);
  EXPECT_EQ(inj.ledger().injected[transient], 1u);
  EXPECT_EQ(inj.ledger().unaccounted(), 1u);
  EXPECT_FALSE(inj.ledger().balanced());
  inj.count_tolerated(FaultClass::kForwardTransient);
  EXPECT_EQ(inj.ledger().unaccounted(), 0u);
  EXPECT_TRUE(inj.ledger().balanced());
}

TEST(Injector, LedgerFormatIsDeterministicAndNamesEveryClass) {
  Injector a(33), b(33);
  core::Rng ra(1), rb(1);
  for (int i = 0; i < 50; ++i) {
    recon::ComptonRing r1 = make_ring(ra), r2 = make_ring(rb);
    a.maybe_corrupt_ring(r1, 0.5);
    b.maybe_corrupt_ring(r2, 0.5);
  }
  EXPECT_EQ(a.ledger().format(), b.ledger().format());
  const std::string table = a.ledger().format();
  for (std::size_t c = 0; c < kFaultClassCount; ++c) {
    EXPECT_NE(table.find(to_string(static_cast<FaultClass>(c))),
              std::string::npos)
        << "missing class " << c;
  }
}

}  // namespace
}  // namespace adapt::fault
