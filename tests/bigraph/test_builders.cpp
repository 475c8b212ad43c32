#include "pclust/bigraph/builders.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::bigraph {
namespace {

synth::Dataset family_data(std::uint64_t seed, std::uint32_t n = 60) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 2;
  spec.mean_length = 90;
  spec.redundant_fraction = 0;
  spec.noise_fraction = 0;
  spec.max_divergence = 0.20;
  return synth::generate(spec);
}

std::vector<seq::SeqId> all_ids(const seq::SequenceSet& set) {
  std::vector<seq::SeqId> ids(set.size());
  std::iota(ids.begin(), ids.end(), seq::SeqId{0});
  return ids;
}

TEST(BuildBd, SymmetricDuplicatedEdges) {
  const auto d = family_data(51);
  const auto cg = build_bd(d.sequences, all_ids(d.sequences));
  EXPECT_EQ(cg.reduction, Reduction::kDuplicate);
  EXPECT_EQ(cg.graph.left_count(), d.sequences.size());
  EXPECT_EQ(cg.graph.right_count(), d.sequences.size());
  EXPECT_GT(cg.graph.edge_count(), 0u);
  // E' = {(i,j),(j,i)}: adjacency is symmetric and loop-free.
  for (std::uint32_t i = 0; i < cg.graph.left_count(); ++i) {
    for (std::uint32_t j : cg.graph.out_links(i)) {
      EXPECT_NE(i, j);
      EXPECT_TRUE(cg.graph.has_edge(j, i)) << i << "->" << j;
    }
  }
}

TEST(BuildBd, EdgesAreTrueOverlaps) {
  const auto d = family_data(52, 40);
  const auto cg = build_bd(d.sequences, all_ids(d.sequences));
  for (std::uint32_t i = 0; i < cg.graph.left_count(); ++i) {
    for (std::uint32_t j : cg.graph.out_links(i)) {
      if (j < i) continue;
      const auto out = align::test_overlap(
          d.sequences.residues(cg.members[i]),
          d.sequences.residues(cg.members[j]), align::blosum62());
      EXPECT_TRUE(out.accepted) << cg.members[i] << " vs " << cg.members[j];
    }
  }
}

TEST(BuildBd, WithinFamilyEdgesDominant) {
  const auto d = family_data(53);
  const auto cg = build_bd(d.sequences, all_ids(d.sequences));
  std::uint64_t within = 0, across = 0;
  for (std::uint32_t i = 0; i < cg.graph.left_count(); ++i) {
    for (std::uint32_t j : cg.graph.out_links(i)) {
      if (d.truth.family[cg.members[i]] == d.truth.family[cg.members[j]]) {
        ++within;
      } else {
        ++across;
      }
    }
  }
  EXPECT_GT(within, 10 * (across + 1));
}

TEST(BuildBd, MemberSubsetOnly) {
  const auto d = family_data(54, 40);
  std::vector<seq::SeqId> members;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (d.truth.family[id] == 0) members.push_back(id);
  }
  const auto cg = build_bd(d.sequences, members);
  EXPECT_EQ(cg.members.size(), members.size());
  EXPECT_EQ(cg.graph.left_count(), members.size());
}

TEST(BuildBd, StatsAccumulated) {
  const auto d = family_data(55, 40);
  const auto cg = build_bd(d.sequences, all_ids(d.sequences));
  EXPECT_GT(cg.candidate_pairs, 0u);
  EXPECT_GT(cg.aligned_pairs, 0u);
  EXPECT_GE(cg.candidate_pairs, cg.aligned_pairs);  // dedup only shrinks
  EXPECT_GT(cg.alignment_cells, 0u);
}

TEST(BuildBd, NoFilterSkipsEdges) {
  // Unlike CCD, BGG aligns every deduplicated candidate pair: aligned_pairs
  // equals the number of distinct candidate pairs.
  const auto d = family_data(56, 30);
  const auto cg = build_bd(d.sequences, all_ids(d.sequences));
  // Aligned == distinct candidates (candidates include duplicates).
  EXPECT_LE(cg.aligned_pairs, cg.candidate_pairs);
  EXPECT_GT(cg.aligned_pairs,
            cg.candidate_pairs / 50);  // sanity: dedup is not everything
}

TEST(BuildBd, EdgesAreExactlyTheOverlapsOfDistinctCandidates) {
  // Rebuilt straight from the enumerator, independently of the engine:
  // every distinct candidate pair is aligned once, seeded on its first
  // (longest) maximal match, and is an edge exactly when that overlap is
  // accepted. A member subset exercises the dense vertex mapping.
  const auto d = family_data(60, 60);
  std::vector<seq::SeqId> members;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (id % 4 != 1) members.push_back(id);
  }
  const suffix::ConcatText text(d.sequences, members);
  const auto sa =
      suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = suffix::build_lcp(text, sa);
  for (const std::uint32_t band : {0u, 16u}) {
    BdParams params;
    params.pace.band = band;
    suffix::MaximalMatchParams mp;
    mp.min_length = params.pace.psi;
    mp.max_node_occurrences = params.pace.max_node_occurrences;
    const auto matches =
        suffix::MaximalMatchEnumerator(text, sa, lcp, mp).all();

    std::set<std::pair<seq::SeqId, seq::SeqId>> seen;
    std::set<std::pair<seq::SeqId, seq::SeqId>> want;
    std::uint64_t cells = 0;
    for (const suffix::MaximalMatch& m : matches) {
      if (!seen.insert({m.a, m.b}).second) continue;
      const auto a = d.sequences.residues(m.a);
      const auto b = d.sequences.residues(m.b);
      const align::PredicateOutcome out =
          band == 0 ? align::test_overlap(a, b, align::blosum62(),
                                          params.pace.overlap)
                    : align::test_overlap_banded(a, b, align::blosum62(),
                                                 m.diagonal(), band,
                                                 params.pace.overlap);
      cells += out.alignment.cells;
      if (out.accepted) {
        want.insert({m.a, m.b});
        want.insert({m.b, m.a});
      }
    }

    const auto cg = build_bd(d.sequences, members, params);
    EXPECT_EQ(cg.candidate_pairs, matches.size()) << "band=" << band;
    EXPECT_EQ(cg.aligned_pairs, seen.size()) << "band=" << band;
    EXPECT_EQ(cg.alignment_cells, cells) << "band=" << band;
    std::set<std::pair<seq::SeqId, seq::SeqId>> got;
    for (std::uint32_t i = 0; i < cg.graph.left_count(); ++i) {
      for (const std::uint32_t j : cg.graph.out_links(i)) {
        got.insert({cg.members[i], cg.members[j]});
      }
    }
    EXPECT_FALSE(want.empty()) << "band=" << band;
    EXPECT_EQ(got, want) << "band=" << band;
  }
}

TEST(BuildBd, IndexChargedAndReleased) {
  // The B_d suffix index is the engine's: published under the bgg prefix
  // and charged to the memory governor only while the graph is built.
  util::governor().configure(0);
  const auto d = family_data(61, 40);
  const auto cg = build_bd(d.sequences, all_ids(d.sequences));
  ASSERT_GT(cg.graph.edge_count(), 0u);
  const std::uint64_t total =
      util::metrics().gauge("mem.bgg.suffix_index.total").last();
  EXPECT_GT(total, 0u);
  EXPECT_GE(util::governor().high_water(), total);
  EXPECT_EQ(util::governor().ledger(), 0u);
}

/// Pool size for build_bd; 0 means no pool.
class BuildBdPool : public ::testing::TestWithParam<unsigned> {};

TEST_P(BuildBdPool, SameGraphAndWorkAsScalarEngine) {
  // Enough pairs for several pooled slices, banded and unbanded.
  const auto d = family_data(59, 120);
  for (const std::uint32_t band : {0u, 16u}) {
    BdParams params;
    params.pace.band = band;
    const align::Isa saved = align::current_isa();
    align::set_isa(align::Isa::kScalar);
    const auto golden = build_bd(d.sequences, all_ids(d.sequences), params);
    align::set_isa(saved);

    std::optional<exec::Pool> pool;
    if (GetParam() > 0) pool.emplace(GetParam());
    const auto cg = build_bd(d.sequences, all_ids(d.sequences), params,
                             pool ? &*pool : nullptr);
    ASSERT_GT(golden.aligned_pairs, align::kPoolGrain) << "band=" << band;
    EXPECT_EQ(cg.candidate_pairs, golden.candidate_pairs) << "band=" << band;
    EXPECT_EQ(cg.aligned_pairs, golden.aligned_pairs) << "band=" << band;
    EXPECT_EQ(cg.alignment_cells, golden.alignment_cells) << "band=" << band;
    ASSERT_EQ(cg.graph.edge_count(), golden.graph.edge_count());
    for (std::uint32_t i = 0; i < cg.graph.left_count(); ++i) {
      const auto got = cg.graph.out_links(i);
      const auto want = golden.graph.out_links(i);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                std::vector<std::uint32_t>(want.begin(), want.end()))
          << "band=" << band << " vertex " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, BuildBdPool, ::testing::Values(0u, 2u, 8u));

TEST(BuildBm, WordsConnectContainingSequences) {
  seq::SequenceSet set;
  set.add("a", "WWWDEFGHIKLMNPWWW");
  set.add("b", "YYDEFGHIKLMNPYY");
  set.add("c", "MMMMMMMMMMMMMM");
  std::vector<seq::SeqId> members{0, 1, 2};
  const auto cg = build_bm(set, members, BmParams{.w = 10});
  EXPECT_EQ(cg.reduction, Reduction::kMatchBased);
  // Shared 10-mers of "DEFGHIKLMNP" (11 long): 2 words, each linking a & b.
  EXPECT_EQ(cg.graph.left_count(), 2u);
  EXPECT_EQ(cg.words.size(), 2u);
  for (std::uint32_t w = 0; w < cg.graph.left_count(); ++w) {
    const auto links = cg.graph.out_links(w);
    EXPECT_EQ(std::vector<std::uint32_t>(links.begin(), links.end()),
              (std::vector<std::uint32_t>{0, 1}));
  }
}

TEST(BuildBm, FamilyMembersShareWords) {
  const auto d = family_data(57, 30);
  const auto cg = build_bm(d.sequences, all_ids(d.sequences), BmParams{});
  EXPECT_GT(cg.graph.left_count(), 0u);
  EXPECT_EQ(cg.graph.right_count(), d.sequences.size());
  // Every word vertex has degree >= 2 by construction.
  for (std::uint32_t w = 0; w < cg.graph.left_count(); ++w) {
    EXPECT_GE(cg.graph.degree(w), 2u);
  }
}

TEST(BuildBm, KmerIndexChargedAndReleased) {
  // The k-mer index is held in the ledger while the graph is built from
  // it; the graph is the caller's to charge.
  const auto d = family_data(58, 30);
  util::metrics().reset();
  util::governor().configure(0);
  const auto cg = build_bm(d.sequences, all_ids(d.sequences), BmParams{});
  ASSERT_GT(cg.graph.edge_count(), 0u);
  const std::uint64_t total =
      util::metrics().gauge("mem.bgg.kmer_index.total").max();
  EXPECT_GT(total, 0u);
  EXPECT_GE(util::governor().high_water(), total);
  EXPECT_EQ(util::governor().ledger(), 0u);
}

TEST(BuildBm, EmptyComponentSafe) {
  seq::SequenceSet set;
  set.add("a", "ACDEFGHIKL");
  const auto cg = build_bm(set, {0}, BmParams{});
  EXPECT_EQ(cg.graph.left_count(), 0u);
  EXPECT_EQ(cg.graph.edge_count(), 0u);
}

TEST(Builders, IntegrationWithComponentDetection) {
  // Components from CCD feed straight into the builders.
  const auto d = family_data(58, 50);
  const auto ccd =
      pace::detect_components_serial(d.sequences, all_ids(d.sequences));
  ASSERT_FALSE(ccd.components.empty());
  const auto& comp = ccd.components.front();
  ASSERT_GE(comp.size(), 5u);
  const auto bd = build_bd(d.sequences, comp);
  const auto bm = build_bm(d.sequences, comp, BmParams{});
  EXPECT_GT(bd.graph.edge_count(), 0u);
  EXPECT_GT(bm.graph.edge_count(), 0u);
}

}  // namespace
}  // namespace pclust::bigraph
