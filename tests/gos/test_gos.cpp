#include "pclust/gos/gos_pipeline.hpp"

#include <gtest/gtest.h>

#include "pclust/align/pairwise.hpp"
#include "pclust/quality/metrics.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/synth/generator.hpp"

namespace pclust::gos {
namespace {

synth::Dataset dense_families(std::uint64_t seed, std::uint32_t n = 120) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 3;
  spec.mean_length = 90;
  spec.redundant_fraction = 0.10;
  spec.noise_fraction = 0.15;
  spec.max_divergence = 0.12;  // high identity: edges pass the 70 % cutoff
  return synth::generate(spec);
}

GosParams scaled_params() {
  GosParams p;
  p.aligner.word_size = 4;
  p.shared_neighbors_k = 5;  // scaled-down analog of the paper's k = 10
  return p;
}

TEST(SeededAligner, SharedWordYieldsAlignment) {
  seq::SequenceSet set;
  set.add("a", "WWWWDEFGHIKLMNWWWW");
  set.add("b", "YYDEFGHIKLMNYY");
  SeededAligner aligner(set, SeededAlignerParams{}, align::blosum62());
  const auto r = aligner.align(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->matches, 10u);
  EXPECT_EQ(aligner.seeded_pairs(), 1u);
}

TEST(SeededAligner, NoSharedWordNoAlignment) {
  seq::SequenceSet set;
  set.add("a", std::string(30, 'A'));
  set.add("b", std::string(30, 'W'));
  SeededAligner aligner(set, SeededAlignerParams{}, align::blosum62());
  EXPECT_FALSE(aligner.align(0, 1).has_value());
  EXPECT_EQ(aligner.seedless_pairs(), 1u);
  EXPECT_EQ(aligner.total_cells(), 0u);
}

TEST(SeededAligner, XNeverSeeds) {
  seq::SequenceSet set;
  set.add("a", "AXAXAXAXAXAX");
  set.add("b", "AXAXAXAXAXAX");
  SeededAligner aligner(set, SeededAlignerParams{.word_size = 4},
                        align::blosum62());
  EXPECT_FALSE(aligner.align(0, 1).has_value());
}

TEST(SeededAligner, BandedCellsBounded) {
  seq::SequenceSet set;
  const std::string shared(60, 'M');
  set.add("a", shared + std::string(60, 'A'));
  set.add("b", shared + std::string(60, 'C'));
  SeededAligner banded(set, SeededAlignerParams{.band = 8},
                       align::blosum62());
  ASSERT_TRUE(banded.align(0, 1).has_value());
  EXPECT_LT(banded.total_cells(),
            align::local_align_score(set.residues(0), set.residues(1),
                                     align::blosum62())
                .cells);
}

TEST(SeededAligner, InvalidWordSizeThrows) {
  seq::SequenceSet set;
  set.add("a", "ACDEFGHIKL");
  EXPECT_THROW(
      SeededAligner(set, SeededAlignerParams{.word_size = 1},
                    align::blosum62()),
      std::invalid_argument);
}

TEST(GosPipeline, RemovesInjectedDuplicates) {
  const auto d = dense_families(71);
  const auto r = run_gos(d.sequences, scaled_params());
  std::size_t found = 0;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (d.truth.redundant[id] && r.removed[id]) ++found;
  }
  EXPECT_GE(found, d.truth.redundant_count() * 7 / 10);
  EXPECT_EQ(r.non_redundant.size() + [&] {
    std::size_t n = 0;
    for (auto v : r.removed) n += v;
    return n;
  }(), d.sequences.size());
}

TEST(GosPipeline, QuadraticAlignmentWork) {
  // The baseline's defining property: Θ(n²) pair visits.
  const auto d = dense_families(72, 60);
  const auto r = run_gos(d.sequences, scaled_params());
  const std::uint64_t n = d.sequences.size();
  EXPECT_GE(r.alignments, n * (n - 1) / 2);  // step 1 alone visits all pairs
}

TEST(GosPipeline, ClustersAlignWithGroundTruth) {
  const auto d = dense_families(73);
  const auto r = run_gos(d.sequences, scaled_params());
  ASSERT_FALSE(r.clusters.empty());
  const auto m =
      quality::compare_clusterings(r.clusters, d.truth.benchmark_clusters());
  EXPECT_GT(m.precision, 0.9);
  EXPECT_GT(m.sensitivity, 0.3);
}

TEST(GosPipeline, MinClusterSizeRespected) {
  const auto d = dense_families(74);
  GosParams p = scaled_params();
  p.min_cluster = 8;
  const auto r = run_gos(d.sequences, p);
  for (const auto& c : r.clusters) EXPECT_GE(c.size(), 8u);
}

TEST(GosPipeline, ClustersAreDisjointNonRedundant) {
  const auto d = dense_families(75);
  const auto r = run_gos(d.sequences, scaled_params());
  std::set<seq::SeqId> seen;
  for (const auto& c : r.clusters) {
    for (auto id : c) {
      EXPECT_TRUE(seen.insert(id).second);
      EXPECT_FALSE(r.removed[id]);
    }
  }
}

TEST(GosPipeline, Deterministic) {
  const auto d = dense_families(76, 80);
  const auto a = run_gos(d.sequences, scaled_params());
  const auto b = run_gos(d.sequences, scaled_params());
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
}

TEST(GosPipeline, HigherKFragmentsMore) {
  const auto d = dense_families(77);
  GosParams loose = scaled_params();
  loose.shared_neighbors_k = 2;
  GosParams strict = scaled_params();
  strict.shared_neighbors_k = 12;
  strict.min_cluster = 2;
  const auto a = run_gos(d.sequences, loose);
  const auto b = run_gos(d.sequences, strict);
  // Stricter shared-neighbor requirement never yields fewer clusters.
  EXPECT_LE(a.clusters.size(), b.clusters.size() + 1);
}

}  // namespace
}  // namespace pclust::gos

namespace pclust::gos {
namespace {

class GosInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GosInvariants, StructuralPropertiesHold) {
  const auto d = dense_families(GetParam(), 90);
  const auto r = run_gos(d.sequences, scaled_params());

  // Removed + non-redundant partition the input.
  std::size_t removed = 0;
  for (auto v : r.removed) removed += v;
  EXPECT_EQ(removed + r.non_redundant.size(), d.sequences.size());

  // Clusters: disjoint, meet the size floor, drawn from survivors,
  // descending by size.
  std::set<seq::SeqId> seen;
  for (std::size_t c = 0; c < r.clusters.size(); ++c) {
    EXPECT_GE(r.clusters[c].size(), GosParams{}.min_cluster);
    if (c > 0) {
      EXPECT_GE(r.clusters[c - 1].size(), r.clusters[c].size());
    }
    for (seq::SeqId id : r.clusters[c]) {
      EXPECT_TRUE(seen.insert(id).second);
      EXPECT_FALSE(r.removed[id]);
    }
  }

  // Work accounting: at least the Θ(n²) step-1 sweep.
  const std::uint64_t n = d.sequences.size();
  EXPECT_GE(r.alignments, n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GosInvariants,
                         ::testing::Values(201, 202, 203, 204));

}  // namespace
}  // namespace pclust::gos
