#include "eval/reject_gate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "eval/ring_io.hpp"
#include "temp_path.hpp"

namespace adapt::eval {
namespace {

namespace tm = core::telemetry;

tm::Snapshot make_snapshot(std::uint64_t rejected, std::uint64_t loaded) {
  tm::Snapshot snapshot;
  if (rejected > 0)
    snapshot.counters["eval.ring_records_rejected.non_finite"] = rejected;
  if (loaded > 0) snapshot.counters["eval.rings_loaded"] = loaded;
  return snapshot;
}

TEST(RejectGate, FractionAndStrictThreshold) {
  const auto snapshot = make_snapshot(30, 70);
  RejectGateResult r = evaluate_reject_gate(snapshot, 0.25);
  EXPECT_EQ(r.rejected, 30u);
  EXPECT_EQ(r.loaded, 70u);
  EXPECT_DOUBLE_EQ(r.fraction, 0.3);
  EXPECT_TRUE(r.breached);

  // The comparison is strictly greater-than: a fraction exactly at the
  // threshold passes.
  EXPECT_FALSE(evaluate_reject_gate(snapshot, 0.3).breached);
  EXPECT_TRUE(evaluate_reject_gate(snapshot, 0.0).breached);
  EXPECT_FALSE(evaluate_reject_gate(snapshot, 1.0).breached);
}

TEST(RejectGate, SumsAllRejectionReasonCounters) {
  tm::Snapshot snapshot;
  snapshot.counters["eval.ring_records_rejected.non_finite"] = 4;
  snapshot.counters["eval.ring_records_rejected.bad_range"] = 6;
  snapshot.counters["eval.rings_loaded"] = 90;
  const RejectGateResult r = evaluate_reject_gate(snapshot, 0.05);
  EXPECT_EQ(r.rejected, 10u);
  EXPECT_DOUBLE_EQ(r.fraction, 0.1);
  EXPECT_TRUE(r.breached);
}

TEST(RejectGate, EmptyRunDoesNotBreach) {
  // The gate measures rejection, not absence of input: a command that
  // loaded no rings at all must not trip even at threshold 0.
  const RejectGateResult r = evaluate_reject_gate(tm::Snapshot{}, 0.0);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.loaded, 0u);
  EXPECT_DOUBLE_EQ(r.fraction, 0.0);
  EXPECT_FALSE(r.breached);
}

TEST(RejectGate, EveryRecordRejectedBreaches) {
  // The regression this gate exists for: a dataset where 100% of the
  // records were rejected used to exit 0.
  const auto snapshot = make_snapshot(160, 0);
  const RejectGateResult r = evaluate_reject_gate(snapshot, 0.99);
  EXPECT_DOUBLE_EQ(r.fraction, 1.0);
  EXPECT_TRUE(r.breached);
  EXPECT_FALSE(evaluate_reject_gate(snapshot, 1.0).breached);
}

TEST(RejectGate, ThresholdOutsideUnitIntervalIsAContractViolation) {
  const auto snapshot = make_snapshot(1, 1);
  EXPECT_THROW(evaluate_reject_gate(snapshot, -0.1), core::ContractViolation);
  EXPECT_THROW(evaluate_reject_gate(snapshot, 1.5), core::ContractViolation);
}

TEST(RejectGate, EndToEndThroughRingLoaderTelemetry) {
  // Drive the real loader over a file with one poisoned record and
  // evaluate the gate on live telemetry, exactly as adaptctl does.
  const std::string path = test::temp_path("adaptml_reject_gate_test", ".adrg");
  TrialSetup setup;
  DatasetGenConfig cfg;
  cfg.polar_angles_deg = {0.0, 50.0};
  cfg.rings_per_angle = 40;
  cfg.seed = 12;
  const GeneratedRings rings = generate_training_rings(setup, cfg);
  ASSERT_TRUE(save_rings(rings, path));
  {
    // Header is magic[4] + version u32 + count u64 = 16 bytes; eta sits
    // after the 3-double axis in the first record.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const double nan = std::nan("");
    f.seekp(16 + 3 * static_cast<std::streamoff>(sizeof(double)));
    f.write(reinterpret_cast<const char*>(&nan), sizeof(nan));
    ASSERT_TRUE(f.good());
  }

  const bool was_enabled = tm::enabled();
  tm::set_enabled(true);
  tm::reset();
  const auto loaded = load_rings(path);
  const tm::Snapshot snapshot = tm::snapshot();
  tm::set_enabled(was_enabled);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.has_value());
  const RejectGateResult r = evaluate_reject_gate(snapshot, 0.5);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.loaded, rings.size() - 1);
  EXPECT_FALSE(r.breached);
  EXPECT_TRUE(evaluate_reject_gate(snapshot, 0.0).breached);
}

}  // namespace
}  // namespace adapt::eval
