/// \file bench_serve_multistream.cpp
/// Throughput, tail latency, and fairness of the serving layer
/// (`serve::StreamRouter`) under the flood harness, against the
/// per-ring loop it replaces.
///
/// Setup: a seeded Zipf-skewed event stream over K logical streams is
/// pushed through the router (paper-dimension synthetic networks,
/// seeds 0x5EB7E / 0x5EB7D).  Rows:
///   * per_ring         — the streams_1 events, one single-ring forward
///                        pair per event, no queue, no batching: the
///                        cost the serving layer amortizes;
///   * batch_1 .. batch_32 — the streams_1 config with only the
///                        micro-batch size changed;
///   * streams_1        — 1 stream / 1 shard / 1 worker at batch 64:
///                        the single-stream service;
///   * streams_10_uniform — 10 equal streams over 2 shards;
///   * streams_100_skew1  — 100 streams at Zipf skew 1.0 over 4 shards,
///                        the fleet-scale headline row;
///   * saturated        — 100 streams into deliberately tiny caps: the
///                        per-stream admission control must shed on the
///                        hot streams while the trickle streams keep
///                        delivering (fairness stays above its floor).
/// Below saturation the queues hold the whole stream, so shed must be
/// exactly 0 and fairness 1.0.
///
/// The final CSV block is what tools/check_timing_regression.sh gates
/// on: per-config events/s floor, shed == 0 for non-saturated rows,
/// Jain fairness >= the baseline's min_fairness column, and the best
/// of batch_8/16/32/streams_1 faster than per_ring.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "serve/flood.hpp"
#include "serve/synthetic_models.hpp"

using namespace adapt;

namespace {

struct Row {
  std::string label;
  std::string csv;
  serve::FloodReport report;
};

void print_row(core::TextTable& table, const Row& row) {
  table.add_row({row.label,
                 core::TextTable::num(row.report.events_per_s / 1e3, 1),
                 core::TextTable::num(row.report.p50_latency_ms, 3),
                 core::TextTable::num(row.report.p99_latency_ms, 3),
                 std::to_string(row.report.batches),
                 std::to_string(row.report.shed),
                 core::TextTable::num(row.report.fairness, 4)});
}

double events_per_s(const std::vector<Row>& rows, const std::string& csv) {
  for (const Row& row : rows)
    if (row.csv == csv) return row.report.events_per_s;
  return 0.0;
}

}  // namespace

int main() {
  std::cout << "=== Multi-stream serving: sharded queues + fairness ===\n"
            << "synthetic paper-dimension networks, INT8 background +"
               " FP32 dEta, seeded Zipf stream\n\n";

  auto background = serve::synthetic_background_net_int8(0x5EB7E);
  auto deta = serve::synthetic_deta_net(0x5EB7D);
  const pipeline::Models models{&background, &deta};

  // 20000 events, queues deep enough to hold the whole stream
  // (shed == 0 below saturation), two producers, zero flush deadline
  // (flush what is visible).
  serve::FloodConfig base;
  base.events = 20000;
  base.producers = 2;
  base.max_batch = 64;
  base.flush_deadline = std::chrono::microseconds(0);
  base.shard_capacity = 32768;
  base.per_stream_cap = 8192;
  base.seed = 42;

  std::vector<Row> rows;

  serve::FloodConfig one = base;
  one.streams = 1;
  one.shards = 1;
  one.workers = 1;
  // One stream carries the whole 20000-event load: its per-stream cap
  // must hold the full stream for the shed == 0 invariant to apply.
  one.per_stream_cap = one.shard_capacity;
  rows.push_back({"per-ring loop (no batching)", "per_ring",
                  serve::measure_per_ring(models, one)});
  const std::size_t batch_sizes[] = {1, 2, 4, 8, 16, 32};
  for (const std::size_t b : batch_sizes) {
    serve::FloodConfig batched = one;
    batched.max_batch = b;
    rows.push_back({"1 stream, batch " + std::to_string(b),
                    "batch_" + std::to_string(b),
                    serve::measure_flood(models, batched)});
  }
  rows.push_back({"1 stream, batch 64 (1 shard)", "streams_1",
                  serve::measure_flood(models, one)});

  serve::FloodConfig ten = base;
  ten.streams = 10;
  ten.skew = 0.0;
  ten.shards = 2;
  ten.workers = 1;
  rows.push_back({"10 streams, uniform (2 shards)", "streams_10_uniform",
                  serve::measure_flood(models, ten)});

  serve::FloodConfig hundred = base;
  hundred.streams = 100;
  hundred.skew = 1.0;
  hundred.shards = 4;
  hundred.workers = 1;
  rows.push_back({"100 streams, skew 1.0 (4 shards)", "streams_100_skew1",
                  serve::measure_flood(models, hundred)});

  // Saturation row: caps far below the offered load.  The hot streams
  // must absorb the shedding (per-stream shed-oldest); the trickle
  // streams keep delivering, so fairness degrades but stays bounded.
  serve::FloodConfig saturated = base;
  saturated.events = 5000;
  saturated.streams = 100;
  saturated.skew = 1.5;
  saturated.producers = 4;
  saturated.shards = 4;
  saturated.workers = 1;
  saturated.shard_capacity = 512;
  saturated.per_stream_cap = 64;
  rows.push_back({"saturated (stream cap 64)", "saturated",
                  serve::measure_flood(models, saturated)});

  core::TextTable table({"configuration", "kevents/s", "p50 [ms]",
                         "p99 [ms]", "batches", "shed", "fairness"});
  for (const Row& row : rows) print_row(table, row);
  table.print(std::cout);

  std::cout << "\nbatched (8) vs per-ring speedup: "
            << core::TextTable::num(events_per_s(rows, "batch_8") /
                                        events_per_s(rows, "per_ring"),
                                    2)
            << "x\n100-stream aggregate vs 1-stream: "
            << core::TextTable::num(events_per_s(rows, "streams_100_skew1") /
                                        events_per_s(rows, "streams_1"),
                                    2)
            << "x\n";

  // Machine-readable block for the timing-regression gate.
  std::printf("\nCSV,config,events_per_s,p50_ms,p99_ms,shed,fairness\n");
  for (const Row& row : rows) {
    std::printf("CSV,%s,%.0f,%.4f,%.4f,%llu,%.4f\n", row.csv.c_str(),
                row.report.events_per_s, row.report.p50_latency_ms,
                row.report.p99_latency_ms,
                static_cast<unsigned long long>(row.report.shed),
                row.report.fairness);
  }
  return 0;
}
