#include <gtest/gtest.h>

#include <string>

#include "fault/matrix.hpp"

namespace adapt::fault {
namespace {

// One tiny scenario keeps the 5-row matrix cheap enough for ctest
// while still exercising every injection surface against real
// scenario rings.
scenario::ScenarioConfig tiny_scenario() {
  scenario::ScenarioConfig cfg;
  cfg.name = "matrix_tiny";
  cfg.duration_s = 2.0;
  cfg.background_rate_scale = 0.05;
  scenario::BurstSpec burst;
  burst.t_start = 0.3;
  burst.fluence = 4.0;
  burst.polar_deg = 25.0;
  burst.azimuth_deg = 40.0;
  cfg.bursts.push_back(burst);
  return cfg;
}

TEST(MatrixRowNames, RoundTrip) {
  EXPECT_STREQ(to_string(MatrixRow::kNone), "none");
  EXPECT_STREQ(to_string(MatrixRow::kEvents), "events");
  EXPECT_STREQ(to_string(MatrixRow::kForward), "forward");
  EXPECT_STREQ(to_string(MatrixRow::kSeu), "seu");
  EXPECT_STREQ(to_string(MatrixRow::kModelBytes), "model_bytes");
}

TEST(FaultMatrix, AllCellsPassWithBalancedLedgers) {
  MatrixSpec spec;
  spec.seed = 2026;
  spec.scenarios.push_back(tiny_scenario());

  const MatrixResult result = run_matrix(spec);
  EXPECT_TRUE(result.ok) << result.report;
  ASSERT_EQ(result.cells.size(), kMatrixRowCount);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.report;
    EXPECT_TRUE(cell.ledger.balanced()) << cell.report;
    EXPECT_EQ(cell.scenario, "matrix_tiny");
    EXPECT_TRUE(cell.errors.empty()) << cell.errors;
    // Every cell report is embedded in the matrix report verbatim.
    EXPECT_NE(result.report.find(cell.report), std::string::npos);
  }
  // Fault rows actually injected something; the clean row did not.
  EXPECT_EQ(result.cells[0].row, MatrixRow::kNone);
  EXPECT_TRUE(result.cells[0].ledger.balanced());
  for (std::size_t i = 1; i < result.cells.size(); ++i) {
    std::uint64_t injected = 0;
    for (const auto& n : result.cells[i].ledger.injected) injected += n;
    EXPECT_GT(injected, 0u) << to_string(result.cells[i].row);
  }
}

TEST(FaultMatrix, TinyScenarioInjectsEveryFaultClassWithExactCounts) {
  // The matrix is the only fault driver, so across its five cells it
  // must reach every FaultClass.  The counts are exact for the seed:
  // the events row draws per ring of the 747-ring burst stream, the
  // other rows inject on a fixed schedule.
  MatrixSpec spec;
  spec.seed = 2026;
  spec.scenarios.push_back(tiny_scenario());

  const MatrixResult result = run_matrix(spec);
  ASSERT_TRUE(result.ok) << result.report;
  ASSERT_EQ(result.cells.size(), kMatrixRowCount);
  const std::string& report = result.cells[0].report;
  EXPECT_NE(report.find(" rings=747 loc_error_deg="), std::string::npos)
      << report;

  const auto injected = [&](MatrixRow row, FaultClass c) {
    return result.cells[static_cast<std::size_t>(row)]
        .ledger.injected[static_cast<std::size_t>(c)];
  };
  for (std::size_t c = 0; c < kFaultClassCount; ++c) {
    std::uint64_t total = 0;
    for (const CellResult& cell : result.cells)
      total += cell.ledger.injected[c];
    EXPECT_GT(total, 0u) << "class " << to_string(static_cast<FaultClass>(c))
                         << " never injected";
  }
  EXPECT_EQ(injected(MatrixRow::kEvents, FaultClass::kRingField), 34u);
  EXPECT_EQ(injected(MatrixRow::kEvents, FaultClass::kQueueDrop), 22u);
  EXPECT_EQ(injected(MatrixRow::kEvents, FaultClass::kQueueDuplicate), 21u);
  EXPECT_EQ(injected(MatrixRow::kForward, FaultClass::kForwardTransient), 11u);
  EXPECT_EQ(injected(MatrixRow::kForward, FaultClass::kForwardPersistent), 2u);
  EXPECT_EQ(injected(MatrixRow::kForward, FaultClass::kForwardStall), 1u);
  EXPECT_EQ(injected(MatrixRow::kSeu, FaultClass::kWeightBit), 1u);
  EXPECT_EQ(injected(MatrixRow::kModelBytes, FaultClass::kModelBytes), 4u);
}

// The integer `serve counters:` block and `final state:` line of every
// fault row for the tiny scenario, recorded before the recovery
// policies moved into the router.  Integers only, so the pin holds on
// any host; a mismatch prints the observed block, ready to paste.
TEST(FaultMatrix, FaultRowServeCountersArePinned) {
  MatrixSpec spec;
  spec.seed = 2026;
  spec.scenarios.push_back(tiny_scenario());

  const MatrixResult result = run_matrix(spec);
  ASSERT_EQ(result.cells.size(), kMatrixRowCount);
  const auto serve_block = [&](MatrixRow row) {
    const std::string& report =
        result.cells[static_cast<std::size_t>(row)].report;
    const std::size_t begin = report.find("serve counters:\n");
    const std::size_t state = report.find("final state: ", begin);
    if (begin == std::string::npos || state == std::string::npos)
      return std::string("<missing>");
    return report.substr(begin, report.find('\n', state) + 1 - begin);
  };
  const std::string expected[] = {
      // events
      "serve counters:\n"
      "  submitted=691\n"
      "  input_rejected=34\n"
      "  queue_drops=22\n"
      "  duplicates_suppressed=21\n"
      "  retries=0\n"
      "  transient_recovered=0\n"
      "  fallback_batches=0\n"
      "  checksum_failures=0\n"
      "  restores=0\n"
      "  watchdog_stalls=0\n"
      "  delivered=691\n"
      "  delivered_fallback=0\n"
      "  delivered_degraded=0\n"
      "final state: healthy\n",
      // forward
      "serve counters:\n"
      "  submitted=750\n"
      "  input_rejected=0\n"
      "  queue_drops=0\n"
      "  duplicates_suppressed=0\n"
      "  retries=15\n"
      "  transient_recovered=11\n"
      "  fallback_batches=2\n"
      "  checksum_failures=0\n"
      "  restores=0\n"
      "  watchdog_stalls=1\n"
      "  delivered=750\n"
      "  delivered_fallback=2\n"
      "  delivered_degraded=0\n"
      "final state: healthy\n",
      // seu
      "serve counters:\n"
      "  submitted=747\n"
      "  input_rejected=0\n"
      "  queue_drops=0\n"
      "  duplicates_suppressed=0\n"
      "  retries=0\n"
      "  transient_recovered=0\n"
      "  fallback_batches=16\n"
      "  checksum_failures=1\n"
      "  restores=1\n"
      "  watchdog_stalls=0\n"
      "  delivered=747\n"
      "  delivered_fallback=16\n"
      "  delivered_degraded=0\n"
      "final state: healthy\n",
      // model_bytes
      "serve counters:\n"
      "  submitted=747\n"
      "  input_rejected=0\n"
      "  queue_drops=0\n"
      "  duplicates_suppressed=0\n"
      "  retries=0\n"
      "  transient_recovered=0\n"
      "  fallback_batches=0\n"
      "  checksum_failures=0\n"
      "  restores=0\n"
      "  watchdog_stalls=0\n"
      "  delivered=747\n"
      "  delivered_fallback=0\n"
      "  delivered_degraded=0\n"
      "final state: healthy\n",
  };
  for (std::size_t r = 1; r < kMatrixRowCount; ++r) {
    const MatrixRow row = static_cast<MatrixRow>(r);
    EXPECT_EQ(serve_block(row), expected[r - 1])
        << to_string(row) << " row observed:\n" << serve_block(row);
  }
}

// Every row serves on the clean row's topology: one stream, shard and
// localizer per burst.  The forward, seu and model_bytes faults never
// touch a scenario ring's fold: transients are retried, the persistent
// and stall probes ride their own stream, model bytes are garbled after
// the stream, and the localizer folds every ring (feed_background) with
// the ring's own width, so the SEU-quarantined window's fallback
// results cannot move it.  The events row drops and corrupts rings, so
// its burst localizer folds fewer.
TEST(FaultMatrix, FaultRowBurstStreamLinesFollowTheirFaults) {
  MatrixSpec spec;
  spec.seed = 2026;
  spec.scenarios.push_back(tiny_scenario());

  const MatrixResult result = run_matrix(spec);
  ASSERT_EQ(result.cells.size(), kMatrixRowCount);
  const auto stream_lines = [&](MatrixRow row) {
    const std::string& report =
        result.cells[static_cast<std::size_t>(row)].report;
    std::string lines;
    for (std::size_t at = report.find("\nstream "); at != std::string::npos;
         at = report.find("\nstream ", at + 1))
      lines += report.substr(at + 1, report.find('\n', at + 1) - at);
    return lines;
  };
  const std::string clean = stream_lines(MatrixRow::kNone);
  ASSERT_NE(clean.find("stream 1: fed=747 accepted=747 "), std::string::npos)
      << clean;
  ASSERT_EQ(clean.find("stream 2:"), std::string::npos) << clean;
  EXPECT_EQ(stream_lines(MatrixRow::kForward), clean);
  EXPECT_EQ(stream_lines(MatrixRow::kSeu), clean);
  EXPECT_EQ(stream_lines(MatrixRow::kModelBytes), clean);

  // 747 rings less 34 corrupted and 22 dropped; suppressed duplicates
  // never reach the fold.
  const std::string events = stream_lines(MatrixRow::kEvents);
  EXPECT_NE(events, clean);
  EXPECT_NE(events.find("stream 1: fed=747 accepted=691 "), std::string::npos)
      << events;
}

TEST(FaultMatrix, ReportIsByteIdenticalAcrossRuns) {
  MatrixSpec spec;
  spec.seed = 7;
  spec.scenarios.push_back(tiny_scenario());

  const MatrixResult a = run_matrix(spec);
  const MatrixResult b = run_matrix(spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.report, b.report);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].report, b.cells[i].report);
    EXPECT_EQ(a.cells[i].seed, b.cells[i].seed);
  }
}

TEST(FaultMatrix, OnlyRowRestrictsTheMatrix) {
  MatrixSpec spec;
  spec.seed = 11;
  spec.scenarios.push_back(tiny_scenario());
  spec.only_row = "events";

  const MatrixResult result = run_matrix(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].row, MatrixRow::kEvents);
  EXPECT_TRUE(result.cells[0].ok) << result.cells[0].report;
}

TEST(FaultMatrix, CleanRowReportCarriesAlertAndStreamLines) {
  MatrixSpec spec;
  spec.seed = 2026;
  spec.scenarios.push_back(tiny_scenario());
  spec.only_row = "none";

  const MatrixResult result = run_matrix(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const std::string& report = result.cells[0].report;
  EXPECT_NE(report.find("sim: "), std::string::npos) << report;
  EXPECT_NE(report.find("trigger: "), std::string::npos) << report;
  EXPECT_NE(report.find("burst 1:"), std::string::npos) << report;
  EXPECT_NE(report.find("stream 1:"), std::string::npos) << report;
  EXPECT_NE(report.find("alert="), std::string::npos) << report;
  EXPECT_NE(report.find("ledger invariant: balanced"), std::string::npos)
      << report;
  EXPECT_NE(report.find("cell status: ok"), std::string::npos) << report;
}

}  // namespace
}  // namespace adapt::fault
