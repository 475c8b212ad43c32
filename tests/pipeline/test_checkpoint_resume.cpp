// Phase-level checkpoint/resume: a resumed pipeline must skip completed
// phases and reproduce the uninterrupted result bit-identically, a partial
// CCD checkpoint must re-enter the pair stream mid-phase, and checkpoints
// from a different input or configuration must be refused (exit 4 at the
// CLI), never silently resumed from.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pclust/pipeline/pipeline.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/checkpoint.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::pipeline {
namespace {

namespace fs = std::filesystem;

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 120) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 4;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

void expect_same_result(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.rr.removed, b.rr.removed);
  EXPECT_EQ(a.rr.container, b.rr.container);
  EXPECT_EQ(a.ccd.components, b.ccd.components);
  ASSERT_EQ(a.families.size(), b.families.size());
  for (std::size_t i = 0; i < a.families.size(); ++i) {
    EXPECT_EQ(a.families[i].members, b.families[i].members) << "family " << i;
    EXPECT_DOUBLE_EQ(a.families[i].mean_degree, b.families[i].mean_degree);
    EXPECT_DOUBLE_EQ(a.families[i].density, b.families[i].density);
  }
  EXPECT_EQ(a.non_redundant_sequences, b.non_redundant_sequences);
  EXPECT_EQ(a.components_min_size, b.components_min_size);
  EXPECT_EQ(a.sequences_in_subgraphs, b.sequences_in_subgraphs);
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  const test::ScopedTempDir dir_;
};

TEST_F(CheckpointResumeTest, FreshRunWritesAllPhaseCheckpoints) {
  const auto d = make_data(61);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto r = run(d.sequences, config);
  EXPECT_EQ(r.phase_log,
            (std::vector<std::string>{"rr:computed", "ccd:computed",
                                      "families:computed"}));
  EXPECT_TRUE(fs::exists(dir_ / "rr.ckpt"));
  EXPECT_TRUE(fs::exists(dir_ / "ccd.ckpt"));
  EXPECT_TRUE(fs::exists(dir_ / "families.ckpt"));
  // The final CCD checkpoint supersedes any mid-phase partial.
  EXPECT_FALSE(fs::exists(dir_ / "ccd_partial.ckpt"));
}

TEST_F(CheckpointResumeTest, FingerprintMatchesEarlierReleases) {
  // Checkpoint directories written by earlier builds must stay resumable:
  // this fixed input under the default configuration fingerprints to the
  // value those builds stored at the head of every checkpoint payload.
  const auto d = make_data(61);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  (void)run(d.sequences, config);
  util::CheckpointReader rr_reader =
      util::read_checkpoint(dir_ / "rr.ckpt", /*phase_tag=*/1,
                            /*max_payload_version=*/3);
  EXPECT_EQ(rr_reader.u64(), 0x0d0e5c1be78c56b0ull);
}

TEST_F(CheckpointResumeTest, FullResumeReproducesResultBitIdentically) {
  const auto d = make_data(62);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);

  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed", "ccd:resumed",
                                      "families:resumed"}));
  expect_same_result(fresh, resumed);
  // A resumed phase reports the checkpointed original duration, not 0.
  EXPECT_DOUBLE_EQ(resumed.rr_seconds, fresh.rr_seconds);
  EXPECT_DOUBLE_EQ(resumed.ccd_seconds, fresh.ccd_seconds);
  EXPECT_DOUBLE_EQ(resumed.bgg_dsd_seconds, fresh.bgg_dsd_seconds);
}

TEST_F(CheckpointResumeTest, MissingLaterPhasesAreRecomputed) {
  const auto d = make_data(63);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);

  // Simulate a crash between CCD and the family phase.
  fs::remove(dir_ / "ccd.ckpt");
  fs::remove(dir_ / "families.ckpt");
  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed", "ccd:computed",
                                      "families:computed"}));
  expect_same_result(fresh, resumed);
}

TEST_F(CheckpointResumeTest, PartialCcdCheckpointResumesMidStream) {
  const auto d = make_data(64, 160);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  config.ccd_checkpoint_stride = 50;
  const auto fresh = run(d.sequences, config);

  // Simulate dying mid-CCD: the completed-phase checkpoints are gone but a
  // mid-stream partial survives. An uninterrupted run deletes its partial,
  // so reconstruct one the same way the pipeline writes it — capture an
  // early union–find snapshot from the serial CCD hook and store it under
  // the pipeline's partial tag with the fingerprint rr.ckpt carries.
  // Payload V3: fingerprint, elapsed-seconds, protocol master count, then
  // the phase data.
  util::CheckpointReader rr_reader =
      util::read_checkpoint(dir_ / "rr.ckpt", /*phase_tag=*/1,
                            /*max_payload_version=*/3);
  const std::uint64_t fingerprint = rr_reader.u64();

  pace::CcdProgress snapshot;
  bool captured = false;
  (void)pace::detect_components_serial(
      d.sequences, fresh.rr.survivors(), config.pace, nullptr, nullptr, 50,
      [&](const pace::CcdProgress& progress) {
        if (captured) return;
        snapshot = progress;
        captured = true;
      });
  ASSERT_TRUE(captured) << "stride 50 must produce a mid-stream snapshot";
  ASSERT_GT(snapshot.next_pair, 0u);

  util::CheckpointWriter partial;
  partial.u64(fingerprint);
  partial.f64(0.25);  // elapsed seconds before the simulated crash
  partial.u32(1);     // provenance: written by a flat (masters=1) run
  partial.u32_vec(snapshot.parents);
  partial.u64(snapshot.next_pair);
  util::write_checkpoint(dir_ / "ccd_partial.ckpt", /*phase_tag=*/2,
                         /*payload_version=*/3, partial);
  fs::remove(dir_ / "ccd.ckpt");
  fs::remove(dir_ / "families.ckpt");

  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed", "ccd:resumed-partial",
                                      "families:computed"}));
  expect_same_result(fresh, resumed);
  // The finished phase replaces its partial again.
  EXPECT_FALSE(fs::exists(dir_ / "ccd_partial.ckpt"));
  // Resumed phase times are populated: RR reports its checkpointed duration
  // and the partial CCD resume folds the prior 0.25 s into its total.
  EXPECT_GT(resumed.rr_seconds, 0.0);
  EXPECT_GE(resumed.ccd_seconds, 0.25);
}

TEST_F(CheckpointResumeTest, DifferentInputFingerprintRefused) {
  const auto d = make_data(65);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  (void)run(d.sequences, config);

  const auto other = make_data(999);
  config.resume = true;
  EXPECT_THROW((void)run(other.sequences, config), util::CheckpointError);
}

TEST_F(CheckpointResumeTest, DifferentConfigFingerprintRefused) {
  const auto d = make_data(66);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  (void)run(d.sequences, config);

  config.resume = true;
  config.pace.psi += 1;  // result-relevant: changes the candidate pair set
  EXPECT_THROW((void)run(d.sequences, config), util::CheckpointError);
}

TEST_F(CheckpointResumeTest, CorruptedCheckpointRefusedNotTrusted) {
  const auto d = make_data(67);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);

  // Flip one payload byte in the RR checkpoint; CRC must catch it and the
  // pipeline must recompute (a corrupt file is indistinguishable from a
  // half-written one, which is an expected crash artifact).
  {
    std::fstream f(dir_ / "rr.ckpt",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(40);
    f.write(&byte, 1);
  }
  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log[0], "rr:computed");
  expect_same_result(fresh, resumed);
}

TEST_F(CheckpointResumeTest, DamagedPrimaryRollsBackToLastGoodGeneration) {
  const auto d = make_data(71);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);
  // A second run rotates the first generation to rr.ckpt.1 (last good).
  (void)run(d.sequences, config);
  ASSERT_TRUE(fs::exists(util::checkpoint_backup_path(dir_ / "rr.ckpt")));

  {
    std::fstream f(dir_ / "rr.ckpt",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(40);
    f.write(&byte, 1);
  }
  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed-backup", "ccd:resumed",
                                      "families:resumed"}));
  expect_same_result(fresh, resumed);
  EXPECT_FALSE(resumed.recovery_log.empty());
  // The damaged primary is preserved for inspection, never resumed from.
  EXPECT_TRUE(fs::exists(util::checkpoint_quarantine_path(dir_ / "rr.ckpt")));
}

TEST_F(CheckpointResumeTest, TruncatedCheckpointIsQuarantinedAndRecomputed) {
  const auto d = make_data(72);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);

  // Kill-mid-write artifact: only one generation exists and it is short.
  fs::resize_file(dir_ / "ccd.ckpt", 10);
  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed", "ccd:computed",
                                      "families:resumed"}));
  expect_same_result(fresh, resumed);
  EXPECT_FALSE(resumed.recovery_log.empty());
  EXPECT_TRUE(fs::exists(util::checkpoint_quarantine_path(dir_ / "ccd.ckpt")));
  // The recomputed phase wrote a fresh, valid checkpoint back.
  EXPECT_TRUE(util::checkpoint_valid(dir_ / "ccd.ckpt", /*phase_tag=*/3,
                                     /*max_payload_version=*/3));
}

TEST_F(CheckpointResumeTest, DoubleFaultBothGenerationsDamagedRecomputes) {
  const auto d = make_data(73);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);
  (void)run(d.sequences, config);  // rotates generation 1 to rr.ckpt.1
  ASSERT_TRUE(fs::exists(util::checkpoint_backup_path(dir_ / "rr.ckpt")));

  // Damage BOTH generations: corrupt the primary and truncate the
  // last-good backup. Rollback has nowhere to go — the phase must fall
  // all the way back to recomputation, never abort.
  {
    std::fstream f(dir_ / "rr.ckpt",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(40);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(40);
    f.write(&byte, 1);
  }
  fs::resize_file(util::checkpoint_backup_path(dir_ / "rr.ckpt"), 10);

  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log[0], "rr:computed");
  expect_same_result(fresh, resumed);
  EXPECT_FALSE(resumed.recovery_log.empty());
  // The damaged primary is still preserved for inspection.
  EXPECT_TRUE(fs::exists(util::checkpoint_quarantine_path(dir_ / "rr.ckpt")));
  // The recomputed phase wrote a fresh, valid generation back.
  EXPECT_TRUE(util::checkpoint_valid(dir_ / "rr.ckpt", /*phase_tag=*/1,
                                     /*max_payload_version=*/3));
}

TEST_F(CheckpointResumeTest, ResumeWithoutCheckpointsJustComputes) {
  const auto d = make_data(68);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  config.resume = true;  // nothing on disk yet: resume of a cold dir
  const auto r = run(d.sequences, config);
  EXPECT_EQ(r.phase_log,
            (std::vector<std::string>{"rr:computed", "ccd:computed",
                                      "families:computed"}));

  PipelineConfig plain;
  const auto golden = run(d.sequences, plain);
  expect_same_result(golden, r);
  EXPECT_TRUE(golden.phase_log.empty());  // checkpointing off: no log
}

TEST_F(CheckpointResumeTest, SimulatedPhasesCheckpointAndResumeToo) {
  const auto d = make_data(69, 100);
  PipelineConfig config;
  config.processors = 3;  // simulated RR + CCD
  config.checkpoint_dir = dir_.string();
  const auto fresh = run(d.sequences, config);

  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed", "ccd:resumed",
                                      "families:resumed"}));
  expect_same_result(fresh, resumed);
}

}  // namespace
}  // namespace pclust::pipeline
