// Structured run reports: schema validity, the alignment-work identity
// (attempted + skipped_by_cluster_filter == candidate_pairs) on serial AND
// faulted simulated runs, the ledger-coverage identity (no structure peaks
// above the governor's high-water), the SIMD-vs-scalar routing counters,
// resume provenance, rank levels as the simulated phases ran them, and
// trace emission around a real pipeline run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "pclust/align/simd.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/pipeline/analysis.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/memgov.hpp"
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

TEST(RunReport, AlignmentRoutesAreReportedAndOptional) {
  const auto d = make_data(87);
  PipelineConfig config;
  util::metrics().reset();
  const auto result = run(d.sequences, config);
  util::JsonValue report = report_for(result, config);
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;

  // The alignment section carries the registry's routing counters; every
  // pair here fits a lane, so only an ISA without lanes scores any scalar.
  const util::JsonValue& alignment = report.at("alignment");
  const util::JsonValue& counters = report.at("metrics").at("counters");
  const std::uint64_t simd = alignment.at("simd_pairs").as_u64();
  const std::uint64_t scalar = alignment.at("scalar_pairs").as_u64();
  EXPECT_EQ(simd, counters.at("align.simd_pairs").as_u64());
  EXPECT_EQ(scalar, counters.at("align.scalar_pairs").as_u64());
  EXPECT_GT(simd + scalar, 0u);
  if (align::current_isa() != align::Isa::kScalar) {
    EXPECT_EQ(scalar, 0u);
  } else {
    EXPECT_EQ(simd, 0u);
  }

  // Reports written before the fields existed still validate.
  for (auto& [key, section] : report.object) {
    if (key != "alignment") continue;
    std::erase_if(section.object, [](const auto& member) {
      return member.first == "simd_pairs" || member.first == "scalar_pairs";
    });
  }
  ASSERT_EQ(report.at("alignment").find("simd_pairs"), nullptr);
  EXPECT_TRUE(validate_report(report, &error)) << error;
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

/// Mutable member lookup; @p key must be present.
util::JsonValue& member(util::JsonValue& object, std::string_view key) {
  for (auto& [name, value] : object.object) {
    if (name == key) return value;
  }
  throw util::JsonError("missing member " + std::string(key));
}

TEST(RunReport, LedgerCoversEveryStructureItLists) {
  // A structure gauge moves only with the charge that holds the structure
  // in the governor's ledger, so no structure peaks above the high-water,
  // and run() leaves nothing charged.
  const auto d = make_data(88);
  for (const unsigned threads : {1u, 4u}) {
    for (const bigraph::Reduction reduction :
         {bigraph::Reduction::kDuplicate, bigraph::Reduction::kMatchBased}) {
      const bool bd = reduction == bigraph::Reduction::kDuplicate;
      SCOPED_TRACE(std::string(bd ? "B_d" : "B_m") + " at threads " +
                   std::to_string(threads));
      const test::ScopedTempDir dir;
      PipelineConfig config;
      config.threads = threads;
      config.reduction = reduction;
      config.provenance = true;
      config.checkpoint_dir = dir.string();
      util::metrics().reset();
      const auto result = run(d.sequences, config);
      EXPECT_EQ(util::governor().ledger(), 0u);

      util::JsonValue report = report_for(result, config);
      std::string error;
      EXPECT_TRUE(validate_report(report, &error)) << error;
      const double high_water = report.at("metrics")
                                    .at("gauges")
                                    .at("memgov.high_water_bytes")
                                    .at("max")
                                    .as_number();
      const util::JsonValue& structures =
          report.at("memory").at("structures");
      for (const char* name :
           {"rr.suffix_index", "rr.pair_stream", "ccd.suffix_index",
            "ccd.pair_stream", "ccd.union_find", "bgg.bigraph", "dsd.shingle",
            bd ? "bgg.pair_stream" : "bgg.kmer_index"}) {
        EXPECT_NE(structures.find(name), nullptr) << name;
      }
      for (const auto& [name, structure] : structures.object) {
        EXPECT_LE(structure.at("peak_total_bytes").as_number(), high_water)
            << name;
      }

      // A structure above the ledger's peak breaks the identity.
      member(member(member(member(report, "metrics"), "gauges"),
                    "memgov.high_water_bytes"),
             "max")
          .number = 0.0;
      EXPECT_FALSE(validate_report(report, &error));
      EXPECT_NE(error.find("high-water"), std::string::npos) << error;
    }
  }
}

TEST(RunReport, PairStreamIsSizedExactlyAtEveryThreadCount) {
  // The serial engine's stream holds exactly its promising pairs, whether
  // one lane enumerated it or several lanes' runs were joined, so the
  // charged footprint is the same at every thread count.
  const auto d = make_data(89);
  std::uint64_t one_lane = 0;
  for (const unsigned threads : {1u, 4u}) {
    PipelineConfig config;
    config.threads = threads;
    util::metrics().reset();
    const auto result = run(d.sequences, config);
    const util::JsonValue report = report_for(result, config);
    const util::JsonValue& pairs = report.at("memory")
                                       .at("structures")
                                       .at("rr.pair_stream")
                                       .at("parts")
                                       .at("pairs");
    EXPECT_EQ(pairs.as_u64(), result.rr.counters.promising_pairs *
                                  sizeof(pace::PairTask))
        << "threads=" << threads;
    if (threads == 1) one_lane = pairs.as_u64();
    EXPECT_EQ(pairs.as_u64(), one_lane) << "threads=" << threads;
  }
  EXPECT_GT(one_lane, 0u);
}

TEST(RunReport, GatedDirectionsAreCountedAndBounded) {
  const auto d = make_data(86);
  PipelineConfig config;
  util::metrics().reset();
  const auto result = run(d.sequences, config);
  const std::string doc =
      render_report(result, config, {"families", "synthetic", ""});
  const util::JsonValue report = util::parse_json(doc);
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;

  // RR's entry counts the directions the q-gram gate decided, as the
  // registry does; other phases have no such field.
  const util::JsonValue& rr = report.at("phases").array[0];
  const std::uint64_t gated = rr.at("gated_directions").as_u64();
  const std::uint64_t attempted = rr.at("attempted").as_u64();
  EXPECT_GT(gated, 0u);
  EXPECT_LE(gated, 2 * attempted);
  EXPECT_EQ(gated, result.rr.gated_directions);
  EXPECT_EQ(
      report.at("metrics").at("counters").at("rr.gated_directions").as_u64(),
      gated);
  EXPECT_EQ(report.at("phases").array[1].find("gated_directions"), nullptr);

  // Each attempted pair has two directions at most.
  const std::string field = "\"gated_directions\":" + std::to_string(gated);
  const auto with_gated = [&](const std::string& replacement) {
    std::string edited = doc;
    edited.replace(edited.find(field), field.size(), replacement);
    return util::parse_json(edited);
  };
  EXPECT_TRUE(validate_report(
      with_gated("\"gated_directions\":" + std::to_string(2 * attempted)),
      &error))
      << error;
  EXPECT_FALSE(validate_report(
      with_gated("\"gated_directions\":" + std::to_string(2 * attempted + 1)),
      &error));
  EXPECT_NE(error.find("gated_directions"), std::string::npos);
  // Reports that predate the field still validate.
  EXPECT_TRUE(validate_report(with_gated("\"gated\":0"), &error)) << error;
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
