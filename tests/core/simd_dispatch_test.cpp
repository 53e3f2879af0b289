#include "core/simd_dispatch.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "core/telemetry.hpp"

namespace adapt::core {
namespace {

/// Sets ADAPT_SIMD for one scope and restores what was there.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    if (const char* old = std::getenv("ADAPT_SIMD")) old_ = old;
    if (value != nullptr) {
      ::setenv("ADAPT_SIMD", value, 1);
    } else {
      ::unsetenv("ADAPT_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (old_) {
      ::setenv("ADAPT_SIMD", old_->c_str(), 1);
    } else {
      ::unsetenv("ADAPT_SIMD");
    }
  }
  ScopedSimdEnv(const ScopedSimdEnv&) = delete;
  ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

 private:
  std::optional<std::string> old_;
};

bool runs_all(Isa) { return true; }
bool runs_up_to_avx2(Isa isa) { return isa != Isa::kAvx512; }
bool runs_scalar_only(Isa isa) { return isa == Isa::kScalar; }

TEST(SimdDispatch, IsaNamesRoundTrip) {
  for (int i = 0; i < kIsaCount; ++i) {
    const auto isa = static_cast<Isa>(i);
    Isa parsed = Isa::kScalar;
    ASSERT_TRUE(parse_isa_name(isa_name(isa), &parsed)) << isa_name(isa);
    EXPECT_EQ(parsed, isa);
  }
  Isa untouched = Isa::kAvx2;
  EXPECT_FALSE(parse_isa_name("AVX512", &untouched));
  EXPECT_FALSE(parse_isa_name("", &untouched));
  EXPECT_FALSE(parse_isa_name(nullptr, &untouched));
  EXPECT_EQ(untouched, Isa::kAvx2);
}

TEST(SimdDispatch, BestRunnableWithoutAnOverride) {
  const ScopedSimdEnv env(nullptr);
  EXPECT_EQ(resolve_isa(runs_all, "test.simd"), Isa::kAvx512);
  EXPECT_EQ(resolve_isa(runs_up_to_avx2, "test.simd"), Isa::kAvx2);
  EXPECT_EQ(resolve_isa(runs_scalar_only, "test.simd"), Isa::kScalar);
}

TEST(SimdDispatch, OverrideIsFollowedOrClampedWithAMarker) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  auto& unsupported =
      telemetry::counter("test.simd.dispatch.unsupported_override");
  auto& bad = telemetry::counter("test.simd.dispatch.bad_override");
  const std::uint64_t unsupported_before = unsupported.value();
  const std::uint64_t bad_before = bad.value();
  {
    const ScopedSimdEnv env("scalar");
    EXPECT_EQ(resolve_isa(runs_all, "test.simd"), Isa::kScalar);
  }
  {
    const ScopedSimdEnv env("avx512");
    EXPECT_EQ(resolve_isa(runs_up_to_avx2, "test.simd"), Isa::kAvx2);
    EXPECT_EQ(unsupported.value() - unsupported_before, 1u);
  }
  {
    const ScopedSimdEnv env("sse9");
    EXPECT_EQ(resolve_isa(runs_up_to_avx2, "test.simd"), Isa::kAvx2);
    EXPECT_EQ(bad.value() - bad_before, 1u);
  }
  telemetry::set_enabled(was_enabled);
}

}  // namespace
}  // namespace adapt::core
