#include "pclust/util/memgov.hpp"

#include <gtest/gtest.h>

#include "pclust/util/metrics.hpp"

namespace pclust::util {
namespace {

/// The governor is process-global: every test reinstalls a known state
/// and leaves it unbudgeted.
class MemGovTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::metrics().reset();
    governor().configure(0);
  }
  void TearDown() override { governor().configure(0); }
};

TEST_F(MemGovTest, LedgerTracksChargesAndReleases) {
  governor().charge("a", 100);
  governor().charge("b", 50);
  EXPECT_EQ(governor().ledger(), 150u);
  EXPECT_EQ(governor().high_water(), 150u);
  governor().release(50);
  EXPECT_EQ(governor().ledger(), 100u);
  EXPECT_EQ(governor().high_water(), 150u);  // high-water never recedes
}

TEST_F(MemGovTest, UnbudgetedGovernorNeverDegrades) {
  governor().charge("a", 1u << 30);
  EXPECT_FALSE(governor().budgeted());
  EXPECT_EQ(governor().pressure(), 0.0);
  EXPECT_EQ(governor().recommend_grain(64), 64u);
  EXPECT_EQ(governor().recommend_batch(256), 256u);
  EXPECT_FALSE(governor().should_spill("dsd"));
  EXPECT_FALSE(governor().hard_exceeded());
  EXPECT_NO_THROW(governor().check_phase_boundary("rr", false));
  EXPECT_TRUE(governor().degradation_log().empty());
}

TEST_F(MemGovTest, ConfigureResetsLedgerAndLog) {
  governor().configure(1000);
  governor().charge("a", 900);
  (void)governor().should_spill("dsd");
  governor().configure(1000);
  EXPECT_EQ(governor().ledger(), 0u);
  EXPECT_EQ(governor().high_water(), 0u);
  EXPECT_TRUE(governor().degradation_log().empty());
}

TEST_F(MemGovTest, GrainHalvesAtPressureAndQuartersNearBudget) {
  governor().configure(1000);
  governor().charge("a", 500);  // pressure 0.5 — below the grain lever
  EXPECT_EQ(governor().recommend_grain(64), 64u);
  governor().charge("b", 250);  // pressure 0.75
  EXPECT_EQ(governor().recommend_grain(64), 32u);
  governor().charge("c", 210);  // pressure 0.96
  EXPECT_EQ(governor().recommend_grain(64), 16u);
  EXPECT_EQ(governor().recommend_batch(256), 64u);
}

TEST_F(MemGovTest, ShrunkenGrainNeverDropsBelowFloor) {
  governor().configure(100);
  governor().charge("a", 99);
  EXPECT_EQ(governor().recommend_grain(16), 8u);
  EXPECT_EQ(governor().recommend_grain(4), 4u);  // already tiny: untouched
}

TEST_F(MemGovTest, StreamAndSpillLeversFireAtTheirThresholds) {
  governor().configure(1000);
  governor().charge("a", 400);  // pressure 0.4
  EXPECT_FALSE(governor().should_spill("dsd"));
  governor().charge("b", 150);  // pressure 0.55
  EXPECT_FALSE(governor().should_spill("dsd"));
  governor().charge("c", 200);  // pressure 0.75
  EXPECT_TRUE(governor().should_spill("dsd"));
}

TEST_F(MemGovTest, LeversAreRecordedOncePerPhaseAndAction) {
  governor().configure(1000);
  governor().charge("a", 990);
  (void)governor().should_spill("dsd");
  (void)governor().should_spill("dsd");
  (void)governor().recommend_grain(64);
  (void)governor().recommend_grain(64);
  const auto log = governor().degradation_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].phase, "dsd");
  EXPECT_EQ(log[0].action, "spill");
  EXPECT_EQ(log[1].action, "shrink-grain");
}

TEST_F(MemGovTest, HardExceedTripsOnlyPastTwiceTheBudget) {
  governor().configure(1000);
  governor().charge("a", 1999);
  EXPECT_FALSE(governor().hard_exceeded());
  EXPECT_NO_THROW(governor().check_phase_boundary("rr", false));
  governor().charge("b", 2);  // ledger 2001 > 2x budget
  EXPECT_TRUE(governor().hard_exceeded());
  EXPECT_THROW(governor().check_phase_boundary("rr", false),
               MemoryBudgetExceeded);
}

TEST_F(MemGovTest, HardExceedStaysTrippedAfterRelease) {
  governor().configure(100);
  governor().charge("a", 300);
  governor().release(300);
  // The peak happened; shedding memory afterwards does not un-doom the
  // run — the phase boundary still reports it.
  EXPECT_TRUE(governor().hard_exceeded());
  EXPECT_THROW(governor().check_phase_boundary("ccd", true),
               MemoryBudgetExceeded);
}

TEST_F(MemGovTest, BoundaryMessageCarriesResumeGuidance) {
  governor().configure(100);
  governor().charge("a", 300);
  try {
    governor().check_phase_boundary("rr", /*resumable=*/true);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const MemoryBudgetExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
  }
  try {
    governor().check_phase_boundary("rr", /*resumable=*/false);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const MemoryBudgetExceeded& e) {
    EXPECT_EQ(std::string(e.what()).find("--resume"), std::string::npos);
  }
}

TEST_F(MemGovTest, MemoryChargeReleasesOnDestruction) {
  governor().configure(1000);
  {
    MemoryCharge charge("table", 400);
    EXPECT_EQ(governor().ledger(), 400u);
    charge.add("more", 100);
    EXPECT_EQ(governor().ledger(), 500u);
  }
  EXPECT_EQ(governor().ledger(), 0u);
  EXPECT_EQ(governor().high_water(), 500u);
}

TEST_F(MemGovTest, MemoryChargeMoveTransfersOwnership) {
  governor().configure(1000);
  MemoryCharge a("table", 200);
  MemoryCharge b(std::move(a));
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(b.bytes(), 200u);
  EXPECT_EQ(governor().ledger(), 200u);
  b.reset();
  EXPECT_EQ(governor().ledger(), 0u);
}

TEST_F(MemGovTest, HighWaterGaugeIsPublished) {
  governor().configure(0);
  governor().charge("a", 12345);
  EXPECT_EQ(util::metrics().gauge("memgov.high_water_bytes").max(), 12345u);
}

}  // namespace
}  // namespace pclust::util
