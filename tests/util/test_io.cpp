#include "pclust/util/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "pclust/util/metrics.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::util::io {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The IoEnv is process-global: every test starts fault-free and leaves
/// the environment fault-free.
class IoEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    io().reset();
    util::metrics().reset();
  }
  void TearDown() override { io().reset(); }

  const test::ScopedTempDir dir_;
};

// ---- fault plan parsing ------------------------------------------------

TEST(IoFaultPlanTest, ParsesClassKindOrdinalAndSticky) {
  const IoFaultPlan plan =
      IoFaultPlan::parse("checkpoint:enospc@2:sticky, telemetry:eio@5");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].cls, ArtifactClass::kCheckpoint);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kEnospc);
  EXPECT_EQ(plan.faults[0].at_write, 2u);
  EXPECT_TRUE(plan.faults[0].sticky);
  EXPECT_EQ(plan.faults[1].cls, ArtifactClass::kTelemetry);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kEio);
  EXPECT_EQ(plan.faults[1].at_write, 5u);
  EXPECT_FALSE(plan.faults[1].sticky);
}

TEST(IoFaultPlanTest, ParsesEveryClassAndKind) {
  for (const char* cls : {"families", "checkpoint", "report", "telemetry",
                          "trace", "log", "provenance"}) {
    for (const char* kind : {"enospc", "eio", "short", "fsync"}) {
      const std::string spec = std::string(cls) + ":" + kind + "@1";
      const IoFaultPlan plan = IoFaultPlan::parse(spec);
      ASSERT_EQ(plan.faults.size(), 1u) << spec;
      EXPECT_EQ(class_name(plan.faults[0].cls), cls);
      EXPECT_EQ(kind_name(plan.faults[0].kind), kind);
    }
  }
}

TEST(IoFaultPlanTest, RoundTripsThroughToString) {
  const std::string spec = "families:eio@3:sticky,log:short@1";
  EXPECT_EQ(IoFaultPlan::parse(spec).to_string(), spec);
}

TEST(IoFaultPlanTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"families", "families:enospc", "families:bogus@1", "bogus:eio@1",
        "families:eio@x", "families:eio@1:often"}) {
    EXPECT_THROW((void)IoFaultPlan::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(IoFaultPlanTest, StickyMatchesEveryLaterOrdinal) {
  const IoFaultPlan plan = IoFaultPlan::parse("report:eio@3:sticky");
  EXPECT_EQ(plan.fault_at(ArtifactClass::kReport, 2), nullptr);
  EXPECT_NE(plan.fault_at(ArtifactClass::kReport, 3), nullptr);
  EXPECT_NE(plan.fault_at(ArtifactClass::kReport, 100), nullptr);
  EXPECT_EQ(plan.fault_at(ArtifactClass::kFamilies, 3), nullptr);
}

TEST(IoFaultPlanTest, TransientMatchesExactlyOneOrdinal) {
  const IoFaultPlan plan = IoFaultPlan::parse("report:eio@3");
  EXPECT_EQ(plan.fault_at(ArtifactClass::kReport, 2), nullptr);
  EXPECT_NE(plan.fault_at(ArtifactClass::kReport, 3), nullptr);
  EXPECT_EQ(plan.fault_at(ArtifactClass::kReport, 4), nullptr);
}

// ---- commit_file -------------------------------------------------------

TEST_F(IoEnvTest, CommitWritesAtomicallyAndCleansTmp) {
  const fs::path out = dir_ / "fam.tsv";
  EXPECT_EQ(io().commit_file(ArtifactClass::kFamilies, out, "a\tb\n"),
            CommitStatus::kCommitted);
  EXPECT_EQ(slurp(out), "a\tb\n");
  EXPECT_FALSE(fs::exists(out.string() + ".tmp"));
}

TEST_F(IoEnvTest, TransientFaultHealsThroughRetry) {
  io().configure(IoFaultPlan::parse("families:enospc@1"));
  const fs::path out = dir_ / "fam.tsv";
  EXPECT_EQ(io().commit_file(ArtifactClass::kFamilies, out, "data"),
            CommitStatus::kCommitted);
  EXPECT_EQ(slurp(out), "data");
  EXPECT_GE(util::metrics().counter("io.retries").value(), 1u);
  EXPECT_GE(util::metrics().counter("io.faults_injected").value(), 1u);
}

TEST_F(IoEnvTest, StickyFaultOnFatalClassThrowsAttributedError) {
  io().configure(IoFaultPlan::parse("families:enospc@1:sticky"));
  const fs::path out = dir_ / "fam.tsv";
  try {
    (void)io().commit_file(ArtifactClass::kFamilies, out, "data");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.artifact_class(), ArtifactClass::kFamilies);
    EXPECT_EQ(e.path(), out.string());
    EXPECT_NE(std::string(e.what()).find("io[families]"), std::string::npos);
  }
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(out.string() + ".tmp"));  // no torn tmp left
}

TEST_F(IoEnvTest, StickyFaultOnDropClassDropsAndCounts) {
  io().configure(IoFaultPlan::parse("trace:eio@1:sticky"));
  const fs::path out = dir_ / "trace.json";
  EXPECT_EQ(io().commit_file(ArtifactClass::kTrace, out, "{}"),
            CommitStatus::kDropped);
  EXPECT_FALSE(fs::exists(out));
  EXPECT_EQ(io().dropped(ArtifactClass::kTrace), 1u);
  EXPECT_GE(util::metrics().counter("io.dropped.trace").value(), 1u);
}

TEST_F(IoEnvTest, ShortWriteIsDetectedAndHealed) {
  io().configure(IoFaultPlan::parse("families:short@1"));
  const fs::path out = dir_ / "fam.tsv";
  const std::string bytes(4096, 'x');
  EXPECT_EQ(io().commit_file(ArtifactClass::kFamilies, out, bytes),
            CommitStatus::kCommitted);
  EXPECT_EQ(fs::file_size(out), bytes.size());
  EXPECT_GE(util::metrics().counter("io.retries").value(), 1u);
}

TEST_F(IoEnvTest, FaultTargetsOnlyTheScheduledOrdinal) {
  io().configure(IoFaultPlan::parse("families:enospc@2:sticky"));
  const fs::path first = dir_ / "a.tsv";
  EXPECT_EQ(io().commit_file(ArtifactClass::kFamilies, first, "1"),
            CommitStatus::kCommitted);
  EXPECT_THROW(
      (void)io().commit_file(ArtifactClass::kFamilies, dir_ / "b.tsv", "2"),
      IoError);
}

TEST_F(IoEnvTest, ConfigureResetsPerClassOrdinals) {
  io().configure(IoFaultPlan::parse("families:enospc@1:sticky"));
  EXPECT_THROW(
      (void)io().commit_file(ArtifactClass::kFamilies, dir_ / "a.tsv", "1"),
      IoError);
  // Reconfiguring the same plan restarts the write counters: the next
  // write is ordinal 1 again and the storm still applies.
  io().configure(IoFaultPlan::parse("families:enospc@1:sticky"));
  EXPECT_THROW(
      (void)io().commit_file(ArtifactClass::kFamilies, dir_ / "b.tsv", "2"),
      IoError);
  io().reset();
  EXPECT_EQ(io().commit_file(ArtifactClass::kFamilies, dir_ / "c.tsv", "3"),
            CommitStatus::kCommitted);
}

// ---- admit_append / open_stream ---------------------------------------

TEST_F(IoEnvTest, AdmitAppendDropsExactlyTheScheduledRecord) {
  io().configure(IoFaultPlan::parse("telemetry:eio@2"));
  EXPECT_TRUE(io().admit_append(ArtifactClass::kTelemetry));
  EXPECT_FALSE(io().admit_append(ArtifactClass::kTelemetry));
  EXPECT_TRUE(io().admit_append(ArtifactClass::kTelemetry));
}

TEST_F(IoEnvTest, StickyAppendStormRejectsEverythingFromN) {
  io().configure(IoFaultPlan::parse("telemetry:enospc@2:sticky"));
  EXPECT_TRUE(io().admit_append(ArtifactClass::kTelemetry));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(io().admit_append(ArtifactClass::kTelemetry));
  }
}

TEST_F(IoEnvTest, OpenFaultAtWriteZeroFailsTheOpen) {
  io().configure(IoFaultPlan::parse("log:eio@0"));
  const std::string path = (dir_ / "sink.log").string();
  EXPECT_EQ(io().open_stream(ArtifactClass::kLog, path, "a"), nullptr);
  // Transient: the second open succeeds.
  std::FILE* f = io().open_stream(ArtifactClass::kLog, path, "a");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

}  // namespace
}  // namespace pclust::util::io
