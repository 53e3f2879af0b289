#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <string>

namespace adapt::fault {
namespace {

// A scaled-down campaign that still injects every fault class: small
// event stream, a couple of rounds per forward/state/model phase, and
// a watchdog tuned fast so the single stall round resolves quickly.
CampaignSpec small_spec(std::uint64_t seed, const std::string& scratch) {
  CampaignSpec spec;
  spec.seed = seed;
  spec.events = 400;
  spec.transient_rounds = 3;
  spec.persistent_rounds = 2;
  spec.stall_rounds = 1;
  spec.stall_duration = std::chrono::milliseconds(300);
  spec.weight_bit_rounds = 2;
  spec.events_per_degraded_window = 3;
  spec.model_bytes_rounds = 3;
  spec.scratch_dir = scratch;
  spec.supervisor.router.max_batch = 8;
  spec.supervisor.watchdog_interval = std::chrono::milliseconds(5);
  spec.supervisor.stall_timeout = std::chrono::milliseconds(80);
  return spec;
}

TEST(Campaign, InjectsEveryClassBalancesAndEndsHealthy) {
  const CampaignResult result =
      run_campaign(small_spec(101, "/tmp/adapt_campaign_test_a"));
  EXPECT_TRUE(result.ok) << result.errors;
  EXPECT_TRUE(result.ledger.balanced()) << result.ledger.format();
  EXPECT_EQ(result.ledger.unaccounted(), 0u);
  for (std::size_t c = 0; c < kFaultClassCount; ++c) {
    EXPECT_GT(result.ledger.injected[c], 0u)
        << "class " << to_string(static_cast<FaultClass>(c))
        << " never injected";
  }
  EXPECT_EQ(result.supervisor.state, serve::HealthState::kHealthy);
  // Forward-phase arithmetic is exact for a seeded spec: each transient
  // round retries once; each persistent round burns the full retry
  // budget then fails over.
  EXPECT_EQ(result.supervisor.transient_recovered, 3u);
  EXPECT_EQ(result.supervisor.watchdog_restarts, 1u);
  EXPECT_EQ(result.supervisor.checksum_failures, 2u);
  EXPECT_EQ(result.supervisor.restores, 2u);
  EXPECT_EQ(result.supervisor.degraded_entered, 2u);
  EXPECT_EQ(result.supervisor.recovering_entered, 2u);
  EXPECT_EQ(result.supervisor.healthy_entered, 2u);
  EXPECT_GT(result.delivered_clean, 0u);
}

TEST(Campaign, TwoRunsSameSeedProduceBitIdenticalLedgers) {
  // The acceptance criterion for the chaos gate: same seed, same spec
  // (scratch location aside) => byte-identical report.
  const CampaignResult first =
      run_campaign(small_spec(202, "/tmp/adapt_campaign_test_b1"));
  const CampaignResult second =
      run_campaign(small_spec(202, "/tmp/adapt_campaign_test_b2"));
  ASSERT_TRUE(first.ok) << first.errors;
  ASSERT_TRUE(second.ok) << second.errors;
  EXPECT_EQ(first.ledger, second.ledger);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.delivered_clean, second.delivered_clean);
  EXPECT_EQ(first.supervisor.delivered, second.supervisor.delivered);
  EXPECT_EQ(first.supervisor.fallback_batches,
            second.supervisor.fallback_batches);
  EXPECT_EQ(first.supervisor.retries, second.supervisor.retries);
}

TEST(Campaign, DisabledCampaignInjectsNothingAndStaysClean) {
  CampaignSpec spec = small_spec(303, "/tmp/adapt_campaign_test_c");
  spec.enabled = false;
  const CampaignResult result = run_campaign(spec);
  EXPECT_TRUE(result.ok) << result.errors;
  EXPECT_EQ(result.ledger.total_injected(), 0u);
  EXPECT_TRUE(result.ledger.balanced());
  EXPECT_EQ(result.supervisor.input_rejected, 0u);
  EXPECT_EQ(result.supervisor.queue_drops, 0u);
  EXPECT_EQ(result.supervisor.duplicates_suppressed, 0u);
  EXPECT_EQ(result.supervisor.retries, 0u);
  EXPECT_EQ(result.supervisor.fallback_batches, 0u);
  EXPECT_EQ(result.supervisor.checksum_failures, 0u);
  EXPECT_EQ(result.supervisor.watchdog_restarts, 0u);
  EXPECT_EQ(result.supervisor.delivered_fallback, 0u);
  EXPECT_EQ(result.delivered_clean, result.supervisor.delivered);
  EXPECT_EQ(result.supervisor.state, serve::HealthState::kHealthy);
}

}  // namespace
}  // namespace adapt::fault
