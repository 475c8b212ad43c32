// Structured run reports: schema validity, the alignment-work identity
// (attempted + skipped_by_cluster_filter == candidate_pairs) on serial AND
// faulted simulated runs, resume provenance, rank levels as the simulated
// phases ran them, and trace emission around a real pipeline run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/pipeline/analysis.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/trace.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::pipeline {
namespace {

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 140) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 4;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

util::JsonValue report_for(const PipelineResult& result,
                           const PipelineConfig& config) {
  const std::string doc =
      render_report(result, config, {"families", "synthetic"});
  return util::parse_json(doc);
}

void expect_identity(const util::JsonValue& obj, const char* where) {
  const std::uint64_t candidates = obj.at("candidate_pairs").as_u64();
  const std::uint64_t attempted = obj.at("attempted").as_u64();
  const std::uint64_t skipped =
      obj.at("skipped_by_cluster_filter").as_u64();
  EXPECT_EQ(attempted + skipped, candidates) << where;
  const double ratio = obj.at("skip_ratio").as_number();
  EXPECT_GE(ratio, 0.0) << where;
  EXPECT_LE(ratio, 1.0) << where;
}

TEST(RunReport, SerialRunSatisfiesIdentityAndValidates) {
  const auto d = make_data(81);
  PipelineConfig config;
  util::metrics().reset();
  const auto result = run(d.sequences, config);
  const util::JsonValue report = report_for(result, config);

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;

  ASSERT_EQ(report.at("phases").array.size(), 3u);
  expect_identity(report.at("phases").array[0], "rr");
  expect_identity(report.at("phases").array[1], "ccd");
  expect_identity(report.at("alignment"), "total");
  EXPECT_GT(report.at("alignment").at("candidate_pairs").as_u64(), 0u);
  // The cluster filter must actually skip work on this workload.
  EXPECT_GT(
      report.at("phases").array[1].at("skipped_by_cluster_filter").as_u64(),
      0u);
  EXPECT_FALSE(report.at("config").at("faults_injected").bool_value);
  EXPECT_TRUE(report.at("faults").at("crashed_ranks").array.empty());
  // The registry snapshot inside the report saw the same alignment totals.
  EXPECT_EQ(report.at("metrics")
                .at("counters")
                .at("pace.alignments_attempted")
                .as_u64(),
            report.at("alignment").at("attempted").as_u64());
  EXPECT_EQ(report.at("metrics")
                .at("counters")
                .at("pace.alignments_speculative")
                .as_u64(),
            report.at("phases").array[0].at("speculative").as_u64() +
                report.at("phases").array[1].at("speculative").as_u64());
}

TEST(RunReport, FaultedHealedParallelRunSatisfiesIdentity) {
  const auto d = make_data(82, 160);
  mpsim::FaultPlan plan;
  plan.crashes.push_back({2, 0.001});
  PipelineConfig config;
  config.processors = 4;
  config.threads = 4;
  config.rr_fault_plan = &plan;
  config.ccd_fault_plan = &plan;

  util::metrics().reset();
  const auto result = run(d.sequences, config);
  const util::JsonValue report = report_for(result, config);

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  expect_identity(report.at("phases").array[0], "rr");
  expect_identity(report.at("phases").array[1], "ccd");
  expect_identity(report.at("alignment"), "total");
  EXPECT_TRUE(report.at("config").at("faults_injected").bool_value);
  // Rank 2 crashed in both simulated phases and the engine healed.
  EXPECT_EQ(report.at("faults").at("crashed_ranks").array.size(), 2u);
  EXPECT_GT(report.at("faults").at("workers_failed").as_u64(), 0u);
  EXPECT_GT(report.at("faults").at("streams_adopted").as_u64(), 0u);
}

TEST(RunReport, ParallelProvenanceRunKeepsRegistryExact) {
  const auto d = make_data(85, 160);
  PipelineConfig config;
  config.processors = 4;
  config.provenance = true;

  util::metrics().reset();
  const auto result = run(d.sequences, config);
  const util::JsonValue report = report_for(result, config);

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  // The CCD ledger of a simulated run comes from a replay of the serial
  // engine; none of the replay's work may leak into the phase counters.
  const util::JsonValue& counters = report.at("metrics").at("counters");
  EXPECT_GT(counters.at("prov.ccd_replay_alignments").as_u64(), 0u);
  EXPECT_EQ(counters.at("pace.alignments_attempted").as_u64(),
            report.at("alignment").at("attempted").as_u64());
  EXPECT_EQ(counters.at("ccd.uf_merges").as_u64(),
            result.non_redundant_sequences - result.ccd.components.size());
}

TEST(RunReport, ResumeProvenanceIsRecorded) {
  const auto d = make_data(83);
  const test::ScopedTempDir dir;
  PipelineConfig config;
  config.checkpoint_dir = dir.string();
  util::metrics().reset();
  (void)run(d.sequences, config);

  config.resume = true;
  util::metrics().reset();
  const auto resumed = run(d.sequences, config);
  const util::JsonValue report = report_for(resumed, config);
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  EXPECT_EQ(report.at("phases").array[0].at("source").as_string(), "resumed");
  EXPECT_TRUE(report.at("resume").at("requested").bool_value);
  EXPECT_EQ(report.at("resume").at("phase_log").array.size(), 3u);
  // Resumed phases still report their original (checkpointed) durations.
  EXPECT_GT(report.at("phases").array[0].at("seconds").as_number(), 0.0);
  // A resumed phase did no alignment work; the identity still holds (0+0=0).
  expect_identity(report.at("phases").array[0], "rr resumed");
}

TEST(RunReport, MalformedReportsAreRejected) {
  std::string error;
  EXPECT_FALSE(
      validate_report(util::parse_json(R"({"schema":"nope"})"), &error));
  EXPECT_FALSE(error.empty());
  // Break the identity in an otherwise plausible phase entry.
  const char* broken = R"({
    "schema":"pclust-run-report","version":1,"command":"families",
    "input":{"path":"x"},"config":{"processors":0},
    "phases":[{"name":"ccd","seconds":1.0,"source":"computed",
               "candidate_pairs":10,"attempted":3,
               "skipped_by_cluster_filter":5,"skip_ratio":0.5}],
    "alignment":{"candidate_pairs":10,"attempted":5,
                 "skipped_by_cluster_filter":5,"skip_ratio":0.5},
    "faults":{"crashed_ranks":[]},"resume":{"phase_log":[]},
    "table1":{"input_sequences":1},
    "metrics":{"counters":{},"gauges":{},"histograms":{}}})";
  EXPECT_FALSE(validate_report(util::parse_json(broken), &error));
  EXPECT_NE(error.find("ccd"), std::string::npos);
  // Speculative alignments are a subset of the skipped pairs.
  const std::string attempted = R"("attempted":3)";
  std::string speculative = broken;
  speculative.replace(speculative.find(attempted), attempted.size(),
                      R"("attempted":5,"speculative":6)");
  EXPECT_FALSE(validate_report(util::parse_json(speculative), &error));
  EXPECT_NE(error.find("speculative"), std::string::npos);
}

TEST(RunReport, DsdFlatFallbackLabelsRanksAsTheyRan) {
  // Three DSD ranks cannot host a two-master tree (that needs masters + 2
  // = 4), so the DSD stage runs flat: master, worker, worker. The report
  // must label the ranks as they ran, not from the configured masters.
  const auto d = make_data(85);
  PipelineConfig config;
  config.processors = 8;
  config.pace.masters = 2;
  config.dsd_processors = 3;
  util::metrics().reset();
  const auto result = run(d.sequences, config);
  const util::JsonValue report = report_for(result, config);

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  std::vector<std::string> levels;
  for (const util::JsonValue& rank :
       report.at("rank_times").at("dsd").array) {
    levels.push_back(rank.at("level").as_string());
  }
  EXPECT_EQ(levels, (std::vector<std::string>{"master", "worker", "worker"}));
  // CCD ran the tree on its 8 ranks.
  EXPECT_EQ(report.at("rank_times").at("ccd").array[1].at("level")
                .as_string(),
            "sub-master");

  const ReportAnalysis analysis = analyze_report(report);
  bool saw_dsd = false;
  for (const PhaseAnalysis& phase : analysis.phases) {
    if (phase.phase != "dsd") continue;
    saw_dsd = true;
    EXPECT_EQ(phase.submasters, 0);
    EXPECT_GE(phase.imbalance_factor, 1.0);
  }
  EXPECT_TRUE(saw_dsd);
}

TEST(RunReport, TraceAroundRunIsValidAndHasPhaseSpans) {
  const auto d = make_data(84, 100);
  PipelineConfig config;
  config.processors = 3;  // simulated RR/CCD -> sim process timelines
  config.dsd_processors = 3;  // simulated DSD -> a sim:dsd timeline
  util::trace::enable();
  util::metrics().reset();
  (void)run(d.sequences, config);
  const util::JsonValue doc = util::parse_json(util::trace::render_json());
  util::trace::disable();

  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  bool saw_rr_process = false, saw_dsd_process = false;
  bool saw_rank_span = false, saw_wall_span = false;
  for (const util::JsonValue& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      const std::string& process = e.at("args").at("name").as_string();
      saw_rr_process = saw_rr_process || process == "sim:rr";
      saw_dsd_process = saw_dsd_process || process == "sim:dsd";
    }
    if (ph == "X" && e.at("cat").as_string() == "sim") saw_rank_span = true;
    if (ph == "X" && e.at("name").as_string() == "rr" &&
        e.at("pid").as_u64() == 0u) {
      saw_wall_span = true;
    }
  }
  EXPECT_TRUE(saw_rr_process);
  EXPECT_TRUE(saw_dsd_process);
  EXPECT_TRUE(saw_rank_span);
  EXPECT_TRUE(saw_wall_span);
}

}  // namespace
}  // namespace pclust::pipeline
