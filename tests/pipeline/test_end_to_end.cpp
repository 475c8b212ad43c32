// File-level integration: the full user journey through the public API —
// generate -> FASTA on disk -> load -> pipeline -> clustering file ->
// compare against the ground-truth clustering file.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "pclust/pipeline/pipeline.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/quality/metrics.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/synth/generator.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::pipeline {
namespace {

class EndToEndFiles : public ::testing::Test {
 protected:
  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  const test::ScopedTempDir dir_;
};

TEST_F(EndToEndFiles, GenerateRunCompare) {
  // Generate and persist.
  synth::DatasetSpec spec;
  spec.seed = 2024;
  spec.num_sequences = 350;
  spec.num_families = 5;
  spec.mean_length = 90;
  spec.redundant_fraction = 0.1;
  spec.noise_fraction = 0.15;
  spec.max_divergence = 0.18;
  const synth::Dataset data = synth::generate(spec);
  seq::write_fasta_file(path("sample.fa"), data.sequences);
  quality::write_clustering_file(path("truth.tsv"),
                                 data.truth.benchmark_clusters(),
                                 data.sequences);

  // Reload from disk; identity must survive the round trip.
  seq::SequenceSet loaded;
  seq::read_fasta_file(path("sample.fa"), loaded);
  ASSERT_EQ(loaded.size(), data.sequences.size());
  for (seq::SeqId id = 0; id < loaded.size(); ++id) {
    ASSERT_EQ(loaded.ascii(id), data.sequences.ascii(id));
    ASSERT_EQ(loaded.name(id), data.sequences.name(id));
  }

  // Run the pipeline on the reloaded data and persist families.
  PipelineConfig config;
  config.shingle.s1 = 3;
  config.shingle.c1 = 80;
  config.shingle.s2 = 2;
  config.shingle.tau = 0.4;
  const PipelineResult result = run(loaded, config);
  ASSERT_GT(result.families.size(), 0u);
  quality::write_clustering_file(path("families.tsv"),
                                 result.family_clustering(), loaded);

  // Compare through the files, as `pclust compare` would.
  const auto test = quality::read_clustering_file(path("families.tsv"),
                                                  loaded);
  const auto benchmark =
      quality::read_clustering_file(path("truth.tsv"), loaded);
  const auto metrics = quality::compare_clusterings(test, benchmark);
  EXPECT_GT(metrics.common_sequences, 100u);
  EXPECT_GT(metrics.precision, 0.9);
  EXPECT_GT(metrics.correlation, 0.3);
}

TEST_F(EndToEndFiles, MaskedPipelineOnDiskData) {
  synth::DatasetSpec spec;
  spec.seed = 7;
  spec.num_sequences = 200;
  spec.num_families = 4;
  spec.mean_length = 80;
  const synth::Dataset data = synth::generate(spec);
  seq::write_fasta_file(path("sample.fa"), data.sequences);

  seq::SequenceSet loaded;
  seq::read_fasta_file(path("sample.fa"), loaded);
  PipelineConfig config;
  config.mask_low_complexity = true;
  config.shingle.s1 = 3;
  config.shingle.c1 = 80;
  const PipelineResult result = run(loaded, config);
  EXPECT_GT(result.dense_subgraph_count, 0u);
}

}  // namespace
}  // namespace pclust::pipeline
