#include "pclust/pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <set>

#include "pclust/quality/metrics.hpp"
#include "pclust/synth/presets.hpp"

namespace pclust::pipeline {
namespace {

synth::Dataset pipeline_data(std::uint64_t seed, std::uint32_t n = 400) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 6;
  spec.mean_length = 90;
  spec.redundant_fraction = 0.12;
  spec.noise_fraction = 0.20;
  spec.max_divergence = 0.18;
  return synth::generate(spec);
}

PipelineConfig quick_config() {
  PipelineConfig config;
  config.shingle.s1 = 3;
  config.shingle.c1 = 80;
  config.shingle.s2 = 2;
  config.shingle.c2 = 40;
  config.shingle.min_size = 5;
  config.shingle.tau = 0.4;
  return config;
}

TEST(Pipeline, EndToEndSerial) {
  const auto d = pipeline_data(81);
  const auto r = run(d.sequences, quick_config());
  EXPECT_EQ(r.input_sequences, d.sequences.size());
  EXPECT_LT(r.non_redundant_sequences, r.input_sequences);
  EXPECT_GT(r.components_min_size, 0u);
  EXPECT_GT(r.dense_subgraph_count, 0u);
  EXPECT_GT(r.sequences_in_subgraphs, 0u);
  EXPECT_GE(r.largest_subgraph, 5u);
}

TEST(Pipeline, FamiliesDisjointAndSorted) {
  const auto d = pipeline_data(82);
  const auto r = run(d.sequences, quick_config());
  std::set<seq::SeqId> seen;
  for (std::size_t i = 0; i < r.families.size(); ++i) {
    const auto& f = r.families[i];
    EXPECT_GE(f.members.size(), 5u);
    EXPECT_TRUE(std::is_sorted(f.members.begin(), f.members.end()));
    for (auto id : f.members) EXPECT_TRUE(seen.insert(id).second);
    if (i > 0) {
      EXPECT_GE(r.families[i - 1].members.size(), f.members.size());
    }
  }
}

TEST(Pipeline, FamiliesContainNoRedundantSequences) {
  const auto d = pipeline_data(83);
  const auto r = run(d.sequences, quick_config());
  for (const auto& f : r.families) {
    for (auto id : f.members) EXPECT_FALSE(r.rr.removed[id]);
  }
}

TEST(Pipeline, DensityHighOnDuplicateReduction) {
  // The paper reports 76-78 % mean density; our families should be dense
  // too (well above the 50 % mark).
  const auto d = pipeline_data(84);
  const auto r = run(d.sequences, quick_config());
  ASSERT_GT(r.dense_subgraph_count, 0u);
  EXPECT_GT(r.mean_density, 0.5);
  EXPECT_GT(r.mean_degree, 1.0);
  for (const auto& f : r.families) {
    EXPECT_GE(f.density, 0.0);
    EXPECT_LE(f.density, 1.0 + 1e-9);
  }
}

TEST(Pipeline, HighPrecisionAgainstGroundTruth) {
  const auto d = pipeline_data(85);
  const auto r = run(d.sequences, quick_config());
  const auto m = quality::compare_clusterings(r.family_clustering(),
                                              d.truth.benchmark_clusters());
  // Paper shape: high precision, lower sensitivity.
  EXPECT_GT(m.precision, 0.85);
  EXPECT_GT(m.sensitivity, 0.2);
  EXPECT_GE(m.precision, m.sensitivity);
}

TEST(Pipeline, MatchBasedReductionRuns) {
  PipelineConfig config = quick_config();
  config.reduction = bigraph::Reduction::kMatchBased;
  config.bm.w = 8;
  const auto d = pipeline_data(86);
  const auto r = run(d.sequences, config);
  EXPECT_GT(r.dense_subgraph_count, 0u);
  // Density is not computed for the match-based reduction.
  for (const auto& f : r.families) EXPECT_DOUBLE_EQ(f.density, 0.0);
}

TEST(Pipeline, ParallelMatchesSerialFamilies) {
  const auto d = pipeline_data(87, 250);
  PipelineConfig serial = quick_config();
  PipelineConfig parallel = quick_config();
  parallel.processors = 4;
  const auto a = run(d.sequences, serial);
  const auto b = run(d.sequences, parallel);
  // CCD components are identical; RR removal sets can differ marginally in
  // chain cases, so compare the component and family COUNTS plus quality.
  EXPECT_EQ(a.components_min_size, b.components_min_size);
  EXPECT_NEAR(static_cast<double>(a.dense_subgraph_count),
              static_cast<double>(b.dense_subgraph_count), 2.0);
}

TEST(Pipeline, ParallelReportsSimulatedTimes) {
  const auto d = pipeline_data(88, 200);
  PipelineConfig config = quick_config();
  config.processors = 4;
  const auto gated = run(d.sequences, config);
  EXPECT_GT(gated.rr_seconds, 0.0);
  EXPECT_GT(gated.ccd_seconds, 0.0);
  // With the paper's align-every-candidate RR worker, RR dominates CCD
  // (paper: > 90 % of run-time). The q-gram gate, on by default, decides
  // most containment directions without DP, so RR gets cheaper but still
  // pays for its scans; CCD is untouched.
  config.pace.qgram_gate = false;
  const auto r = run(d.sequences, config);
  EXPECT_GT(r.rr_seconds, r.ccd_seconds);
  EXPECT_LT(gated.rr_seconds, r.rr_seconds);
  EXPECT_EQ(gated.ccd_seconds, r.ccd_seconds);
  EXPECT_EQ(gated.rr.removed, r.rr.removed);
}

TEST(Pipeline, Table1RowRenders) {
  const auto d = pipeline_data(89, 200);
  const auto r = run(d.sequences, quick_config());
  const std::string row = table1_row(r);
  EXPECT_NE(row.find(" | "), std::string::npos);
  EXPECT_NE(row.find('%'), std::string::npos);
}

TEST(Pipeline, PresetSmokeTest) {
  const auto d = synth::generate(synth::paper_160k(0.003));
  const auto r = run(d.sequences, quick_config());
  EXPECT_GT(r.non_redundant_sequences, 0u);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto d = pipeline_data(90, 200);
  const auto a = run(d.sequences, quick_config());
  const auto b = run(d.sequences, quick_config());
  ASSERT_EQ(a.families.size(), b.families.size());
  for (std::size_t i = 0; i < a.families.size(); ++i) {
    EXPECT_EQ(a.families[i].members, b.families[i].members);
  }
}

}  // namespace
}  // namespace pclust::pipeline

namespace pclust::pipeline {
namespace {

TEST(Pipeline, LowComplexityMaskingRuns) {
  // Inject homopolymer junk into an otherwise clean sample; with masking
  // the junk cannot seed matches and the family structure is preserved.
  auto d = pipeline_data(91, 200);
  seq::SequenceSet set = d.sequences.subset([&] {
    std::vector<seq::SeqId> ids(d.sequences.size());
    for (seq::SeqId i = 0; i < d.sequences.size(); ++i) ids[i] = i;
    return ids;
  }());
  for (int i = 0; i < 10; ++i) {
    set.add("junk" + std::to_string(i), std::string(120, 'Q'));
  }
  PipelineConfig config = quick_config();
  config.mask_low_complexity = true;
  const auto r = run(set, config);
  EXPECT_GT(r.dense_subgraph_count, 0u);
  // The junk sequences must not form a family (they are all-X after
  // masking and share no exact matches).
  for (const auto& f : r.families) {
    for (auto id : f.members) {
      EXPECT_EQ(set.name(id).rfind("junk", 0), std::string::npos);
    }
  }
}

TEST(Pipeline, EagerGenerationSameClustering) {
  const auto d = pipeline_data(92, 200);
  PipelineConfig base = quick_config();
  base.processors = 4;
  PipelineConfig eager = base;
  eager.pace.generation_batches = 8;
  const auto a = run(d.sequences, base);
  const auto b = run(d.sequences, eager);
  EXPECT_EQ(a.components_min_size, b.components_min_size);
  ASSERT_EQ(a.families.size(), b.families.size());
}

TEST(DerivePsi, PaperExample) {
  // §IV-A: 98 % similarity over 100 residues => a 33-residue exact match.
  EXPECT_EQ(pace::derive_psi(0.98, 100), 33u);
  EXPECT_EQ(pace::derive_psi(1.0, 50), 50u);
  EXPECT_EQ(pace::derive_psi(0.95, 100), 16u);
  EXPECT_EQ(pace::derive_psi(0.5, 10), 1u);
}

}  // namespace
}  // namespace pclust::pipeline
