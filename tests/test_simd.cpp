// SIMD dispatch tests (common/simd.hpp): level clamping, the level gauge,
// level names, and how FEMTO_SIMD is read. The kernels that dispatch -- the
// GTSP cluster DP and the Held-Karp fill -- have their level tests in
// test_compile_hot; the statevector kernels and the GF(2) word ops have one
// path each, pinned in test_statevector_kernels and test_gf2.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "support/level_session.hpp"

namespace femto {
namespace {

TEST(SimdDispatch, SetLevelClampsToHostSupport) {
  LevelSession session;
  const simd::Level best = simd::max_supported();
  EXPECT_EQ(simd::set_level(simd::Level::kPortable), simd::Level::kPortable);
  // Requesting more than the host has clamps to the host maximum.
  EXPECT_LE(static_cast<int>(simd::set_level(simd::Level::kAvx2)),
            static_cast<int>(best));
  EXPECT_EQ(simd::set_level(best), best);
}

TEST(SimdDispatch, LevelGaugePublished) {
  LevelSession session;
  (void)simd::set_level(simd::Level::kPortable);
  EXPECT_EQ(obs::registry().gauge("sim.simd_level").value(), 0);
  const simd::Level best = simd::max_supported();
  (void)simd::set_level(best);
  EXPECT_EQ(obs::registry().gauge("sim.simd_level").value(),
            static_cast<std::int64_t>(best));
}

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(simd::to_string(simd::Level::kPortable), "portable");
  EXPECT_STREQ(simd::to_string(simd::Level::kAvx2), "avx2");
}

// The level a process resolves at start-up is the one FEMTO_SIMD names,
// clamped to the host. A value that names no level fails here, so a CI leg
// meant to force the portable kernels cannot run the best level unnoticed.
// (Every test that switches levels restores the entry level on exit.)
TEST(SimdDispatch, StartupLevelIsTheOneFemtoSimdNames) {
  const char* env = std::getenv("FEMTO_SIMD");
  const std::string value = env == nullptr ? "auto" : env;
  simd::Level named = simd::max_supported();
  if (value == "portable" || value == "scalar" || value == "0") {
    named = simd::Level::kPortable;
  } else if (value == "avx2" || value == "1") {
    named = simd::Level::kAvx2;
  } else {
    ASSERT_EQ(value, "auto") << "FEMTO_SIMD names no level";
  }
  EXPECT_EQ(simd::level(), simd::detail::clamp(named))
      << "FEMTO_SIMD=" << value;
}

TEST(SimdDispatch, UnknownFemtoSimdFallsBackToBestOnStderr) {
  // "avx512" and "2" name no level either.
  for (const char* typo : {"portabel", "PORTABLE", "avx-2", "", "avx512",
                           "2"}) {
    testing::internal::CaptureStderr();
    const simd::Level got =
        simd::detail::parse_level(typo, simd::Level::kAvx2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(got, simd::Level::kAvx2) << '"' << typo << '"';
    EXPECT_NE(err.find(std::string("FEMTO_SIMD=\"") + typo + '"'),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("accepted: portable"), std::string::npos) << err;
  }
  for (const char* ok : {"portable", "scalar", "0", "avx2", "1", "auto"}) {
    testing::internal::CaptureStderr();
    (void)simd::detail::parse_level(ok, simd::Level::kAvx2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << ok;
  }
  EXPECT_EQ(simd::detail::parse_level("0", simd::Level::kAvx2),
            simd::Level::kPortable);
  EXPECT_EQ(simd::detail::parse_level("1", simd::Level::kPortable),
            simd::Level::kAvx2);
  EXPECT_EQ(simd::detail::parse_level(nullptr, simd::Level::kAvx2),
            simd::Level::kAvx2);
}

}  // namespace
}  // namespace femto
