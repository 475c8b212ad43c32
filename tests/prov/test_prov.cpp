// The provenance ledger and the explain algorithms over it: edge/ledger
// serialization round trips (strict parse: tampered summaries are
// rejected), the evidence-forest path queries, and audit_family's
// deterministic weak-link / hub / Steiner rankings on hand-built trees.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "pclust/prov/edge.hpp"
#include "pclust/prov/explain.hpp"
#include "pclust/prov/ledger.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::prov {
namespace {

Edge ccd_edge(std::uint32_t a, std::uint32_t b, std::int32_t score) {
  Edge e;
  e.a = a;
  e.b = b;
  e.phase = Phase::kCcd;
  e.rule = Rule::kOverlap;
  e.score = score;
  e.matches = static_cast<std::uint32_t>(score);
  e.columns = static_cast<std::uint32_t>(score) + 10;
  e.a_span = 50;
  e.b_span = 48;
  return e;
}

Edge dsd_edge(std::uint32_t a, std::uint32_t b) {
  Edge e;
  e.a = a;
  e.b = b;
  e.phase = Phase::kDsd;
  e.rule = Rule::kBd;
  e.score = 3;
  e.matches = 3;
  e.columns = 7;
  return e;
}

TEST(ProvNames, PhaseAndRuleRoundTrip) {
  for (const Phase p : {Phase::kRr, Phase::kCcd, Phase::kDsd}) {
    EXPECT_EQ(phase_from_name(phase_name(p)), p);
  }
  for (const Rule r :
       {Rule::kContainment, Rule::kOverlap, Rule::kBd, Rule::kBm}) {
    EXPECT_EQ(rule_from_name(rule_name(r)), r);
  }
  EXPECT_THROW((void)phase_from_name("bgg"), std::invalid_argument);
  EXPECT_THROW((void)rule_from_name("B_x"), std::invalid_argument);
}

TEST(ProvLedger, EdgeRoundTripsThroughItsJsonLine) {
  Edge e;
  e.a = 17;
  e.b = 3;
  e.phase = Phase::kRr;
  e.rule = Rule::kContainment;
  e.score = -4;  // negative scores must survive (alignment can go negative)
  e.matches = 91;
  e.columns = 96;
  e.a_span = 96;
  e.b_span = 120;
  EXPECT_EQ(parse_edge(render_edge(e)), e);

  const Edge d = dsd_edge(5, 5);  // a == b is legal for shingle merges
  EXPECT_EQ(parse_edge(render_edge(d)), d);
}

TEST(ProvLedger, WidestEdgeLineFitsTheReservedBound) {
  Edge e;
  e.phase = Phase::kCcd;
  e.rule = Rule::kContainment;
  e.a = e.b = e.matches = e.columns = e.a_span = e.b_span =
      std::numeric_limits<std::uint32_t>::max();
  e.score = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(render_edge(e).size() + 1, kMaxEdgeLineBytes);
}

TEST(ProvLedger, MalformedEdgeLinesThrow) {
  EXPECT_THROW((void)parse_edge("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_edge("{\"a\":1}"), std::runtime_error);
  EXPECT_THROW((void)parse_edge(
                   "{\"a\":1,\"b\":2,\"phase\":\"nope\",\"rule\":"
                   "\"overlap\",\"score\":1,\"matches\":1,\"columns\":1,"
                   "\"a_span\":0,\"b_span\":0}"),
               std::runtime_error);
}

Ledger small_ledger() {
  Ledger ledger;
  ledger.sequences = 6;
  Edge rr;
  rr.a = 5;
  rr.b = 0;
  rr.phase = Phase::kRr;
  rr.rule = Rule::kContainment;
  rr.score = 80;
  rr.matches = 40;
  rr.columns = 42;
  rr.a_span = 42;
  rr.b_span = 60;
  ledger.edges.push_back(rr);
  ledger.edges.push_back(ccd_edge(0, 1, 33));
  ledger.edges.push_back(ccd_edge(1, 2, 21));
  ledger.edges.push_back(dsd_edge(0, 2));
  ledger.recount();
  ledger.counts.rr_merges = 1;
  ledger.counts.ccd_merges = 2;
  ledger.counts.dsd_merges = 1;
  return ledger;
}

TEST(ProvLedger, RecountTalliesPhasesAndRules) {
  const Ledger ledger = small_ledger();
  EXPECT_EQ(ledger.counts.rr_edges, 1u);
  EXPECT_EQ(ledger.counts.ccd_edges, 2u);
  EXPECT_EQ(ledger.counts.dsd_edges, 1u);
  EXPECT_EQ(ledger.counts.rule_containment, 1u);
  EXPECT_EQ(ledger.counts.rule_overlap, 2u);
  EXPECT_EQ(ledger.counts.rule_bd, 1u);
  EXPECT_EQ(ledger.counts.rule_bm, 0u);
  EXPECT_EQ(ledger.counts.total_edges(), 4u);
  EXPECT_TRUE(ledger.counts.identity_holds());
}

TEST(ProvLedger, IdentityFailsWhenAMergeIsUncovered) {
  Ledger ledger = small_ledger();
  ledger.counts.ccd_merges = 3;  // one merge more than the evidence covers
  EXPECT_FALSE(ledger.counts.identity_holds());
}

TEST(ProvLedger, RenderParseRoundTripIsExact) {
  const Ledger ledger = small_ledger();
  const std::string bytes = render_ledger(ledger);
  const Ledger back = parse_ledger(bytes);
  EXPECT_EQ(back.sequences, ledger.sequences);
  EXPECT_EQ(back.edges, ledger.edges);
  EXPECT_TRUE(back.counts.identity_holds());
  // Byte stability: re-rendering the parsed ledger reproduces the bytes.
  EXPECT_EQ(render_ledger(back), bytes);
}

TEST(ProvLedger, TamperedSummaryIsRejected) {
  std::string bytes = render_ledger(small_ledger());
  const std::string::size_type at = bytes.find("\"ccd\":2");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 7, "\"ccd\":9");
  EXPECT_THROW((void)parse_ledger(bytes), std::runtime_error);
}

TEST(ProvLedger, TruncatedLedgerIsRejected) {
  const std::string bytes = render_ledger(small_ledger());
  // Drop the summary line: strict parsing must notice.
  const std::string::size_type last =
      bytes.find_last_of('\n', bytes.size() - 2);
  ASSERT_NE(last, std::string::npos);
  EXPECT_THROW((void)parse_ledger(bytes.substr(0, last + 1)),
               std::runtime_error);
}

TEST(ProvLedger, FileRoundTrip) {
  const test::ScopedTempDir dir;
  const std::filesystem::path path = dir / "roundtrip.jsonl";
  const Ledger ledger = small_ledger();
  write_ledger(path.string(), ledger);
  const Ledger back = read_ledger(path.string());
  EXPECT_EQ(back.edges, ledger.edges);
  EXPECT_EQ(back.sequences, ledger.sequences);
}

// ---- evidence forest -------------------------------------------------------

/// Path graph 0 -1- 1 -2- 2 with a pendant 4 at 2 and an RR removal
/// 7 -> 0; second tree {5, 6}; vertex 3 isolated.
Ledger forest_ledger() {
  Ledger ledger;
  ledger.sequences = 8;
  Edge rr;
  rr.a = 7;
  rr.b = 0;
  rr.phase = Phase::kRr;
  rr.rule = Rule::kContainment;
  rr.score = 55;
  ledger.edges.push_back(ccd_edge(0, 1, 10));
  ledger.edges.push_back(ccd_edge(1, 2, 5));
  ledger.edges.push_back(ccd_edge(2, 4, 7));
  ledger.edges.push_back(ccd_edge(5, 6, 3));
  ledger.edges.push_back(rr);
  ledger.edges.push_back(dsd_edge(0, 2));
  ledger.edges.push_back(dsd_edge(0, 5));  // crosses families: no support
  ledger.recount();
  ledger.counts.rr_merges = 1;
  ledger.counts.ccd_merges = 4;
  ledger.counts.dsd_merges = 2;
  return ledger;
}

TEST(EvidenceForestTest, ConnectivityFollowsRrAndCcdEdgesOnly) {
  const EvidenceForest forest(forest_ledger());
  EXPECT_TRUE(forest.connected(0, 4));
  EXPECT_TRUE(forest.connected(7, 2));  // via the RR containment edge
  EXPECT_TRUE(forest.connected(5, 6));
  EXPECT_FALSE(forest.connected(0, 5));  // the DSD edge 0-5 is not evidence
  EXPECT_FALSE(forest.connected(3, 0));  // isolated vertex
}

TEST(EvidenceForestTest, PathIsTheUniqueChainBetweenEndpoints) {
  const Ledger ledger = forest_ledger();
  const EvidenceForest forest(ledger);
  // Forest edge indices: 0:(0,1) 1:(1,2) 2:(2,4) 3:(5,6) 4:(7,0) —
  // ledger order with the DSD lines dropped.
  EXPECT_EQ(forest.path(0, 4), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(forest.path(4, 0), (std::vector<std::uint32_t>{2, 1, 0}));
  EXPECT_EQ(forest.path(7, 2), (std::vector<std::uint32_t>{4, 0, 1}));
  EXPECT_TRUE(forest.path(1, 1).empty());
  EXPECT_TRUE(forest.path(0, 5).empty());  // disconnected
  // Consecutive path edges share a vertex, starting at the query's a.
  const auto chain = forest.path(7, 4);
  std::uint32_t at = 7;
  for (const std::uint32_t idx : chain) {
    const Edge& e = forest.edge(idx);
    ASSERT_TRUE(e.a == at || e.b == at);
    at = e.a == at ? e.b : e.a;
  }
  EXPECT_EQ(at, 4u);
}

TEST(EvidenceForestTest, CycleMeansDoubleCoveredMergeAndIsRejected) {
  Ledger ledger;
  ledger.sequences = 3;
  ledger.edges.push_back(ccd_edge(0, 1, 1));
  ledger.edges.push_back(ccd_edge(1, 2, 2));
  ledger.edges.push_back(ccd_edge(0, 2, 3));
  ledger.recount();
  ledger.counts.ccd_merges = 3;
  EXPECT_THROW(EvidenceForest{ledger}, std::invalid_argument);
}

TEST(EvidenceForestTest, SelfAndOutOfRangeEdgesAreRejected) {
  Ledger self;
  self.sequences = 2;
  self.edges.push_back(ccd_edge(1, 1, 1));
  EXPECT_THROW(EvidenceForest{self}, std::invalid_argument);

  Ledger range;
  range.sequences = 2;
  range.edges.push_back(ccd_edge(0, 2, 1));
  EXPECT_THROW(EvidenceForest{range}, std::invalid_argument);
}

// ---- family audit ----------------------------------------------------------

TEST(AuditFamilyTest, SteinerTreeWeakLinksAndHubsAreDeterministic) {
  const Ledger ledger = forest_ledger();
  const EvidenceForest forest(ledger);
  const FamilyAudit audit = audit_family(forest, ledger, {4, 0, 7});

  EXPECT_TRUE(audit.connected);
  EXPECT_EQ(audit.members, (std::vector<std::uint32_t>{0, 4, 7}));
  // Bridging intermediates on the member-to-member paths.
  EXPECT_EQ(audit.steiner_vertices, (std::vector<std::uint32_t>{1, 2}));
  // Weakest evidence first: scores 5 (edge 1), 7 (edge 2), 10 (edge 0),
  // 55 (the RR edge, index 4).
  EXPECT_EQ(audit.weak_links, (std::vector<std::uint32_t>{1, 2, 0, 4}));
  // Interior vertices 0, 1, 2 each split the three members apart; vertex 0
  // is itself a member (a fusion point can be a member). All split into
  // two groups of sizes {1, 2} except none yields three groups here.
  ASSERT_EQ(audit.hubs.size(), 3u);
  for (const Hub& hub : audit.hubs) {
    EXPECT_EQ(hub.parts, 2u);
    EXPECT_EQ(hub.min_part, 1u);
  }
  EXPECT_EQ(audit.hubs[0].seq, 0u);  // ties break on ascending id
  EXPECT_EQ(audit.hubs[1].seq, 1u);
  EXPECT_EQ(audit.hubs[2].seq, 2u);
  // DSD edge 0-2: only one endpoint is a member, so no support; 0-5 ditto.
  EXPECT_EQ(audit.dsd_support, 0u);
}

TEST(AuditFamilyTest, StarHubFragmentsIntoThreeParts) {
  Ledger ledger;
  ledger.sequences = 4;
  ledger.edges.push_back(ccd_edge(0, 1, 9));
  ledger.edges.push_back(ccd_edge(0, 2, 8));
  ledger.edges.push_back(ccd_edge(0, 3, 7));
  ledger.edges.push_back(dsd_edge(1, 2));
  ledger.recount();
  ledger.counts.ccd_merges = 3;
  ledger.counts.dsd_merges = 1;
  const EvidenceForest forest(ledger);
  const FamilyAudit audit = audit_family(forest, ledger, {1, 2, 3});

  // The star center 0 is pure Steiner and the sole hub: 3 groups of 1.
  EXPECT_EQ(audit.steiner_vertices, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(audit.hubs.size(), 1u);
  EXPECT_EQ(audit.hubs[0].seq, 0u);
  EXPECT_EQ(audit.hubs[0].parts, 3u);
  EXPECT_EQ(audit.hubs[0].min_part, 1u);
  // DSD edge 1-2 has both endpoints inside the family.
  EXPECT_EQ(audit.dsd_support, 1u);
}

TEST(AuditFamilyTest, MembersInDifferentTreesFlaggedDisconnected) {
  const Ledger ledger = forest_ledger();
  const EvidenceForest forest(ledger);
  const FamilyAudit audit = audit_family(forest, ledger, {0, 5});
  EXPECT_FALSE(audit.connected);
}

TEST(AuditFamilyTest, SingletonFamilyHasNoEvidence) {
  const Ledger ledger = forest_ledger();
  const EvidenceForest forest(ledger);
  const FamilyAudit audit = audit_family(forest, ledger, {4, 4});
  EXPECT_EQ(audit.members, (std::vector<std::uint32_t>{4}));
  EXPECT_TRUE(audit.weak_links.empty());
  EXPECT_TRUE(audit.hubs.empty());
  EXPECT_TRUE(audit.connected);
}

TEST(AuditFamilyTest, EmptyMemberListThrows) {
  const Ledger ledger = forest_ledger();
  const EvidenceForest forest(ledger);
  EXPECT_THROW((void)audit_family(forest, ledger, {}), std::invalid_argument);
}

}  // namespace
}  // namespace pclust::prov
