#include "pclust/util/memgov.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "pclust/util/metrics.hpp"

namespace pclust::util {
namespace {

/// Puts @p bytes in the ledger under an unnamed charge.
MemoryCharge held(std::uint64_t bytes) {
  MemoryCharge charge;
  charge.add("held", bytes);
  return charge;
}

/// The gauge `mem.<key>`.
const Gauge& gauge(const std::string& key) {
  return util::metrics().gauge("mem." + key);
}

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
  const MemoryCharge a = held(100);
  MemoryCharge b = held(50);
  EXPECT_EQ(governor().ledger(), 150u);
  EXPECT_EQ(governor().high_water(), 150u);
  b.reset();
  EXPECT_EQ(governor().ledger(), 100u);
  EXPECT_EQ(governor().high_water(), 150u);  // high-water never recedes
}

TEST_F(MemGovTest, UnbudgetedGovernorNeverDegrades) {
  const MemoryCharge a = held(1u << 30);
  EXPECT_FALSE(governor().budgeted());
  EXPECT_FALSE(governor().narrow_drain());
  EXPECT_FALSE(governor().hard_exceeded());
  EXPECT_NO_THROW(governor().check_phase_boundary("rr", false));
  EXPECT_TRUE(governor().degradation_log().empty());
}

TEST_F(MemGovTest, ConfigureResetsLedgerAndLog) {
  governor().configure(1000);
  MemoryCharge a = held(900);
  (void)governor().narrow_drain();
  governor().configure(1000);
  EXPECT_EQ(governor().ledger(), 0u);
  EXPECT_EQ(governor().high_water(), 0u);
  EXPECT_TRUE(governor().degradation_log().empty());
}

TEST_F(MemGovTest, DrainNarrowsOnceTheHighWaterReachedThreshold) {
  // The drain's lever reads the high-water: a graph charges its tables
  // late, so the level at a graph's start understates what is coming.
  EXPECT_FALSE(governor().narrow_drain());  // unbudgeted
  governor().configure(1000);
  governor().set_phase("bgg+dsd");
  MemoryCharge charge = held(650);  // peak 0.65
  EXPECT_FALSE(governor().narrow_drain());
  charge.add("held", 100);  // peak 0.75
  charge.reset();           // level 0, peak 0.75
  EXPECT_TRUE(governor().narrow_drain());
  EXPECT_TRUE(governor().narrow_drain());
  const auto log = governor().degradation_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].phase, "bgg+dsd");
  EXPECT_EQ(log[0].action, "shrink-drain");
}

TEST_F(MemGovTest, LeversAreRecordedOncePerPhaseAndAction) {
  governor().configure(1000);
  const MemoryCharge a = held(990);
  governor().set_phase("bgg+dsd");
  EXPECT_TRUE(governor().narrow_drain());
  EXPECT_TRUE(governor().narrow_drain());
  governor().note_degradation("bgg+dsd", "shrink-drain", "again");
  governor().note_degradation("dsd", "shrink-drain", "another phase");
  governor().set_phase("rr");
  EXPECT_TRUE(governor().narrow_drain());
  const auto log = governor().degradation_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].phase, "bgg+dsd");
  EXPECT_EQ(log[0].action, "shrink-drain");
  EXPECT_EQ(log[1].phase, "dsd");
  EXPECT_EQ(log[2].phase, "rr");
  EXPECT_EQ(metrics().counter("memgov.degradations").value(), 3u);
}

TEST_F(MemGovTest, HardExceedTripsOnlyPastTwiceTheBudget) {
  governor().configure(1000);
  MemoryCharge charge = held(1999);
  EXPECT_FALSE(governor().hard_exceeded());
  EXPECT_NO_THROW(governor().check_phase_boundary("rr", false));
  charge.add("held", 2);  // ledger 2001 > 2x budget
  EXPECT_TRUE(governor().hard_exceeded());
  EXPECT_THROW(governor().check_phase_boundary("rr", false),
               MemoryBudgetExceeded);
}

TEST_F(MemGovTest, HardExceedStaysTrippedAfterRelease) {
  governor().configure(100);
  held(300).reset();
  // The peak happened; shedding memory afterwards does not un-doom the
  // run — the phase boundary still reports it.
  EXPECT_TRUE(governor().hard_exceeded());
  EXPECT_THROW(governor().check_phase_boundary("ccd", true),
               MemoryBudgetExceeded);
}

TEST_F(MemGovTest, BoundaryMessageCarriesResumeGuidance) {
  governor().configure(100);
  const MemoryCharge a = held(300);
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
    MemoryCharge charge = held(400);
    EXPECT_EQ(governor().ledger(), 400u);
    charge.add("more", 100);
    EXPECT_EQ(governor().ledger(), 500u);
    EXPECT_EQ(charge.bytes(), 500u);
  }
  EXPECT_EQ(governor().ledger(), 0u);
  EXPECT_EQ(governor().high_water(), 500u);
}

TEST_F(MemGovTest, MemoryChargeMoveTransfersOwnership) {
  governor().configure(1000);
  MemoryCharge a = held(200);
  MemoryCharge b(std::move(a));
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(b.bytes(), 200u);
  EXPECT_EQ(governor().ledger(), 200u);
  b.reset();
  EXPECT_EQ(governor().ledger(), 0u);
}

TEST_F(MemGovTest, NamedChargeMovesTheLedgerByEachPartsDifference) {
  // A bystander charge keeps the ledger off zero, so a double release
  // would show instead of clamping.
  const MemoryCharge bystander = held(1000);
  {
    MemoryCharge charge("rr", MemoryBreakdown("table"));
    EXPECT_EQ(governor().ledger(), 1000u);
    charge.set("rows", 100);  // set
    charge.set("index", 40);
    EXPECT_EQ(governor().ledger(), 1140u);
    charge.add("rows", 60);  // grow
    EXPECT_EQ(governor().ledger(), 1200u);
    charge.set("rows", 30);  // shrink
    EXPECT_EQ(governor().ledger(), 1070u);
    charge.set("index", 0);  // zero
    EXPECT_EQ(governor().ledger(), 1030u);
    charge.set("index", 90);  // regrow beside the shrunken rows
    EXPECT_EQ(governor().ledger(), 1120u);
    EXPECT_EQ(charge.bytes(), 120u);
    EXPECT_EQ(governor().high_water(), 1200u);

    // The gauges hold the live parts and their high-water marks: the
    // total peaked at 200 (rows 160 + index 40), never at the 250 the
    // part maxima would add up to.
    EXPECT_EQ(gauge("rr.table.rows").last(), 30u);
    EXPECT_EQ(gauge("rr.table.rows").max(), 160u);
    EXPECT_EQ(gauge("rr.table.index").last(), 90u);
    EXPECT_EQ(gauge("rr.table.index").max(), 90u);
    EXPECT_EQ(gauge("rr.table.total").last(), 120u);
    EXPECT_EQ(gauge("rr.table.total").max(), 200u);
  }
  // Destruction released all 120 bytes once; the gauges keep their marks.
  EXPECT_EQ(governor().ledger(), 1000u);
  EXPECT_EQ(gauge("rr.table.total").max(), 200u);
}

TEST_F(MemGovTest, ChargePublishesPartAndTotalGaugesWithHighWaterMark) {
  MemoryBreakdown b("memsize_test_struct");
  b.add("nodes", 100).add("edges", 50);
  {
    const MemoryCharge charge({}, b);
    EXPECT_EQ(governor().ledger(), 150u);
    EXPECT_EQ(gauge("memsize_test_struct.nodes").last(), 100u);
    EXPECT_EQ(gauge("memsize_test_struct.edges").last(), 50u);
    EXPECT_EQ(gauge("memsize_test_struct.total").last(), 150u);
  }
  // A smaller second instance must not lower the high-water mark — that is
  // what makes "one index per component" report the largest instance.
  MemoryBreakdown smaller("memsize_test_struct");
  smaller.add("nodes", 10).add("edges", 5);
  const MemoryCharge charge({}, smaller);
  EXPECT_EQ(gauge("memsize_test_struct.total").last(), 15u);
  EXPECT_EQ(gauge("memsize_test_struct.total").max(), 150u);
  EXPECT_EQ(governor().ledger(), 15u);
}

TEST_F(MemGovTest, ChargePrefixesGaugeKeysWithThePhase) {
  MemoryBreakdown b("memsize_test_struct");
  b.add("nodes", 7);
  const MemoryCharge charge("rr", b);
  EXPECT_EQ(gauge("rr.memsize_test_struct.nodes").last(), 7u);
  EXPECT_EQ(gauge("rr.memsize_test_struct.total").last(), 7u);
}

TEST_F(MemGovTest, MovedFromChargeReleasesNothing) {
  const MemoryCharge bystander = held(1000);
  MemoryBreakdown b("table");
  b.add("rows", 300);
  MemoryCharge a("dsd", b);
  {
    MemoryCharge b2(std::move(a));
    EXPECT_EQ(governor().ledger(), 1300u);
    a.reset();  // moved from: holds nothing, releases nothing
    EXPECT_EQ(governor().ledger(), 1300u);
    b2.set("rows", 200);  // the new owner keeps publishing
    EXPECT_EQ(gauge("dsd.table.total").last(), 200u);
    MemoryCharge c;
    c = std::move(b2);
    EXPECT_EQ(governor().ledger(), 1200u);
  }
  EXPECT_EQ(governor().ledger(), 1000u);
  EXPECT_EQ(governor().high_water(), 1300u);
}

TEST_F(MemGovTest, HighWaterGaugeIsPublished) {
  governor().configure(0);
  const MemoryCharge a = held(12345);
  EXPECT_EQ(util::metrics().gauge("memgov.high_water_bytes").max(), 12345u);
}

}  // namespace
}  // namespace pclust::util
