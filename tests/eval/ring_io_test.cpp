#include "eval/ring_io.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>

#include "core/telemetry.hpp"
#include "temp_path.hpp"

namespace adapt::eval {
namespace {

GeneratedRings small_set() {
  const TrialSetup setup;
  DatasetGenConfig cfg;
  cfg.polar_angles_deg = {0.0, 50.0};
  cfg.rings_per_angle = 80;
  cfg.seed = 99;
  return generate_training_rings(setup, cfg);
}

class RingIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  const std::string path_ = test::temp_path("adaptml_ring_io_test", ".adrg");
};

TEST_F(RingIoTest, RoundTripPreservesEverything) {
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  const auto loaded = load_rings(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->count_background(), original.count_background());

  for (std::size_t i = 0; i < original.size(); i += 7) {
    const auto& a = original.rings[i];
    const auto& b = loaded->rings[i];
    EXPECT_DOUBLE_EQ(a.eta, b.eta);
    EXPECT_DOUBLE_EQ(a.d_eta, b.d_eta);
    EXPECT_DOUBLE_EQ(a.e_total, b.e_total);
    EXPECT_DOUBLE_EQ(a.sigma_e_total, b.sigma_e_total);
    EXPECT_DOUBLE_EQ(a.axis.x, b.axis.x);
    EXPECT_DOUBLE_EQ(a.axis.z, b.axis.z);
    EXPECT_DOUBLE_EQ(a.hit1.position.y, b.hit1.position.y);
    EXPECT_DOUBLE_EQ(a.hit1.energy, b.hit1.energy);
    EXPECT_DOUBLE_EQ(a.hit1.sigma_energy, b.hit1.sigma_energy);
    EXPECT_DOUBLE_EQ(a.hit2.position.z, b.hit2.position.z);
    EXPECT_DOUBLE_EQ(a.hit2.sigma_position.x, b.hit2.sigma_position.x);
    EXPECT_EQ(a.n_hits, b.n_hits);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_DOUBLE_EQ(a.order_chi2, b.order_chi2);
    EXPECT_DOUBLE_EQ(a.true_direction.x, b.true_direction.x);
    EXPECT_DOUBLE_EQ(original.polar_degs[i], loaded->polar_degs[i]);
    EXPECT_DOUBLE_EQ(original.true_sources[i].z, loaded->true_sources[i].z);
  }
}

TEST_F(RingIoTest, DatasetsBuiltFromLoadedRingsAreIdentical) {
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  const auto loaded = load_rings(path_);
  ASSERT_TRUE(loaded.has_value());
  const nn::Dataset a = make_background_dataset(original, true);
  const nn::Dataset b = make_background_dataset(*loaded, true);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i)
    EXPECT_FLOAT_EQ(a.x.vec()[i], b.x.vec()[i]);
  EXPECT_EQ(a.y, b.y);
}

TEST_F(RingIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      load_rings(test::temp_path("definitely_missing", ".adrg")).has_value());
}

TEST_F(RingIoTest, CorruptHeaderRejected) {
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_rings(path_).has_value());
}

TEST_F(RingIoTest, TruncatedPayloadRejected) {
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  // Chop off the tail.
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_FALSE(load_rings(path_).has_value());
}

TEST_F(RingIoTest, InconsistentSetRefusedOnSave) {
  GeneratedRings broken = small_set();
  broken.polar_degs.pop_back();
  EXPECT_FALSE(save_rings(broken, path_));
}

// Header layout: magic[4], version u32, count u64 — so the count field
// lives at byte offset 8 and the first record starts at 16.
constexpr std::streamoff kCountOffset = 8;
constexpr std::streamoff kPayloadOffset = 16;
// Within a record, eta follows the 3-double axis.
constexpr std::streamoff kEtaOffset = 3 * sizeof(double);

void patch_file(const std::string& path, std::streamoff offset,
                const void* bytes, std::size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
  ASSERT_TRUE(f.good());
}

TEST_F(RingIoTest, OversizedCountHeaderRejectedWithoutAllocation) {
  // A corrupt header claiming ~10^18 records must be rejected against
  // the real file size BEFORE any reserve().  The seed reserved first
  // and OOM-killed the process; now the rejection is immediate — the
  // generous wall-clock bound below only fails if a huge allocation
  // (or swap thrash) actually happened.
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  const std::uint64_t huge = std::uint64_t{1} << 60;
  patch_file(path_, kCountOffset, &huge, sizeof(huge));

  namespace tm = core::telemetry;
  const bool was_enabled = tm::enabled();
  tm::set_enabled(true);
  const std::uint64_t rejected_before =
      tm::counter("eval.ring_files_rejected").value();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(load_rings(path_).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(tm::counter("eval.ring_files_rejected").value(),
            rejected_before + 1);
  tm::set_enabled(was_enabled);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST_F(RingIoTest, CountLargerThanPayloadRejected) {
  // Even an off-by-one over the real record count is a corrupt file.
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  const std::uint64_t count = original.size() + 1;
  patch_file(path_, kCountOffset, &count, sizeof(count));
  EXPECT_FALSE(load_rings(path_).has_value());
}

TEST_F(RingIoTest, NonFiniteRecordSkippedAndCounted) {
  const GeneratedRings original = small_set();
  ASSERT_TRUE(save_rings(original, path_));
  const double nan = std::nan("");
  patch_file(path_, kPayloadOffset + kEtaOffset, &nan, sizeof(nan));

  namespace tm = core::telemetry;
  const bool was_enabled = tm::enabled();
  tm::set_enabled(true);
  const std::uint64_t rejected_before =
      tm::counter("eval.ring_records_rejected.non_finite").value();
  const auto loaded = load_rings(path_);
  EXPECT_EQ(tm::counter("eval.ring_records_rejected.non_finite").value(),
            rejected_before + 1);
  tm::set_enabled(was_enabled);

  // The poisoned record is dropped; everything else loads intact.
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size() - 1);
  for (const auto& ring : loaded->rings) {
    EXPECT_TRUE(std::isfinite(ring.eta));
    EXPECT_TRUE(std::isfinite(ring.d_eta));
  }
  EXPECT_DOUBLE_EQ(loaded->rings.front().eta, original.rings[1].eta);
}

}  // namespace
}  // namespace adapt::eval
