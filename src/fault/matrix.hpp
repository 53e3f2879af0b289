#pragma once

/// \file matrix.hpp
/// The fault-class x scenario campaign matrix: every hostile-sky
/// scenario crossed with every fault row, each cell a seeded,
/// replayable run of the scenario's ring stream through a live serve
/// pipeline with that row's faults injected — and the Ledger invariant
/// (injected == detected + tolerated) enforced per cell.
///
/// Rows:
///   none         clean serve path: StreamRouter with one stream per
///                burst, per-stream streaming localization and early
///                alerts — the golden-report row CI gates on
///   events       per-ring field corruption + queue drop/duplicate
///                faults on the scenario's own rings
///   forward      armed transient faults spread through the stream,
///                plus persistent-failover and watchdog-stall probes
///                (the watchdog counts the stall; nothing restarts)
///   seu          a weight-bit flip mid-stream: detect via checksum
///                health tick, serve flagged, restore, finish clean
///   model_bytes  garbled serialized-model loads after the stream
///
/// Every row runs through one cell driver on one topology: a
/// StreamRouter with one stream, one shard and one streaming localizer
/// per burst, on one worker.  Each scenario ring goes to its own
/// burst's stream, burst by burst; a fault row injects its faults
/// through the router's queue-fault and forward hooks and exercises its
/// recovery policies (checksum quarantine, retry, ingress hygiene,
/// duplicate suppression, stall watchdog), while synthetic probe rings
/// ride a stream of their own so no burst localizer folds one.  So
/// every cell reports each burst's `stream N:` line (rings folded,
/// radius checks, last radius, alert and its scenario-clock latency);
/// the row picks only which serve-counter block follows.
///
/// Determinism contract: every cell derives its seed from (matrix
/// seed, scenario index, row index); serving uses max_batch = 1 so
/// each ring is its own batch (batch boundaries, localizer check
/// cadence, and per-batch counters are schedule-independent), shard
/// and per-stream caps exceed the stream length, overload degradation
/// is off, and no wall-clock value enters a report.  Two runs of
/// `adaptctl campaign --matrix --seed N` produce byte-identical
/// reports — the property the scenario-matrix CI job diffs.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "scenario/engine.hpp"

namespace adapt::fault {

/// Matrix rows (fault classes grouped by injection surface).
enum class MatrixRow : std::size_t {
  kNone = 0,
  kEvents,
  kForward,
  kSeu,
  kModelBytes,
};
inline constexpr std::size_t kMatrixRowCount = 5;

const char* to_string(MatrixRow row);

struct MatrixSpec {
  std::uint64_t seed = 2026;
  std::vector<scenario::ScenarioConfig> scenarios;
  /// Restrict to one row (by name) — empty runs all five.
  std::string only_row;
  /// Scratch directory for model-byte fault files; empty = temp dir.
  std::string scratch_dir;
};

struct CellResult {
  std::string scenario;
  MatrixRow row = MatrixRow::kNone;
  std::uint64_t seed = 0;
  Ledger ledger;
  /// Ledger balanced, no drain timed out, healthy end state.
  bool ok = false;
  std::string errors;
  /// Deterministic per-cell report (sim + trigger + per-burst
  /// localization lines, serve counters, ledger table, status).
  std::string report;
};

struct MatrixResult {
  std::vector<CellResult> cells;
  bool ok = false;          ///< Every cell ok.
  std::string report;       ///< All cell reports + summary.
};

/// Run the full matrix.  Deterministic: two calls with equal specs
/// produce byte-identical `report` and equal cell ledgers.
MatrixResult run_matrix(const MatrixSpec& spec);

}  // namespace adapt::fault
