// Merge-provenance through the pipeline: the ledger covers every
// final-partition merge exactly once, its rendered bytes are invariant
// across execution shapes (threads, simulated ranks, master trees, healed
// fault plans) and across checkpoint resume (sidecar splicing, damaged
// sidecars, partial-CCD re-entry), and the run report's `provenance`
// section validates — including rejecting a tampered identity flag.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pclust/mpsim/runtime.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/prov/explain.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/checkpoint.hpp"
#include "pclust/util/json.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::pipeline {
namespace {

namespace fs = std::filesystem;

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 150) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 4;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

PipelineConfig base_config() {
  PipelineConfig config;
  config.provenance = true;
  return config;
}

TEST(PipelineProvenance, OffByDefaultLeavesLedgerEmpty) {
  const auto d = make_data(301);
  PipelineConfig config;
  const auto r = run(d.sequences, config);
  EXPECT_EQ(r.provenance.sequences, 0u);
  EXPECT_TRUE(r.provenance.edges.empty());
}

TEST(PipelineProvenance, LedgerCoversEveryMergeExactlyOnce) {
  const auto d = make_data(302);
  const auto r = run(d.sequences, base_config());

  const prov::Ledger& ledger = r.provenance;
  EXPECT_EQ(ledger.sequences, d.sequences.size());
  // The derivation-side identity: one evidence edge per union-find merge
  // that survives into the final partition, per phase.
  EXPECT_TRUE(ledger.counts.identity_holds());
  EXPECT_EQ(ledger.counts.rr_edges, r.rr.removed_count());
  EXPECT_EQ(ledger.counts.ccd_edges,
            r.rr.survivors().size() - r.ccd.components.size());
  EXPECT_GT(ledger.counts.dsd_edges, 0u);
  EXPECT_EQ(ledger.counts.total_edges(), ledger.edges.size());

  // Every endpoint lives in the input universe.
  for (const prov::Edge& e : ledger.edges) {
    EXPECT_LT(e.a, ledger.sequences);
    EXPECT_LT(e.b, ledger.sequences);
  }
  // "Exactly once" structurally: the RR + CCD edges must form a forest
  // (a cycle would double-cover a merge) — the constructor verifies.
  EXPECT_NO_THROW(prov::EvidenceForest{ledger});

  // Co-family members are connected in the evidence forest.
  const prov::EvidenceForest forest(ledger);
  for (const Family& family : r.families) {
    for (std::size_t i = 1; i < family.members.size(); ++i) {
      EXPECT_TRUE(forest.connected(family.members[0], family.members[i]));
    }
  }
}

TEST(PipelineProvenance, LedgerBytesInvariantAcrossExecutionShapes) {
  const auto d = make_data(303);
  const std::string golden =
      prov::render_ledger(run(d.sequences, base_config()).provenance);
  ASSERT_FALSE(golden.empty());

  {
    PipelineConfig config = base_config();  // real shared-memory threads
    config.threads = 4;
    EXPECT_EQ(prov::render_ledger(run(d.sequences, config).provenance),
              golden);
  }
  {
    PipelineConfig config = base_config();  // simulated ranks, flat master
    config.processors = 4;
    EXPECT_EQ(prov::render_ledger(run(d.sequences, config).provenance),
              golden);
  }
  {
    PipelineConfig config = base_config();  // hierarchical master tree
    config.processors = 6;
    config.pace.masters = 2;
    config.dsd_processors = 4;
    EXPECT_EQ(prov::render_ledger(run(d.sequences, config).provenance),
              golden);
  }
}

TEST(PipelineProvenance, LedgerBytesInvariantUnderHealedFaults) {
  const auto d = make_data(304);
  const std::string golden =
      prov::render_ledger(run(d.sequences, base_config()).provenance);

  mpsim::FaultPlan plan;
  plan.crashes.push_back({2, 0.5});
  plan.crashes.push_back({3, 1.0});
  PipelineConfig config = base_config();
  config.processors = 5;
  config.rr_fault_plan = &plan;
  config.ccd_fault_plan = &plan;

  mpsim::FaultPlan dsd_plan;
  dsd_plan.crashes.push_back({1, 1.0});
  config.dsd_processors = 4;
  config.dsd_fault_plan = &dsd_plan;

  const auto healed = run(d.sequences, config);
  EXPECT_EQ(prov::render_ledger(healed.provenance), golden);
}

class ProvenanceResumeTest : public ::testing::Test {
 protected:
  const test::ScopedTempDir dir_;
};

/// Both bipartite reductions: DSD evidence is B_d overlap edges under one
/// and B_m shared-word edges under the other, and a families resume must
/// recover either from its sidecar or by re-running the per-graph drain.
constexpr bigraph::Reduction kReductions[] = {
    bigraph::Reduction::kDuplicate, bigraph::Reduction::kMatchBased};

TEST_F(ProvenanceResumeTest, ResumeSplicesSidecarsByteIdentically) {
  const auto d = make_data(305);
  for (const bigraph::Reduction reduction : kReductions) {
    SCOPED_TRACE(reduction == bigraph::Reduction::kDuplicate ? "B_d" : "B_m");
    const fs::path dir = dir_ / std::to_string(static_cast<int>(reduction));
    PipelineConfig config = base_config();
    config.reduction = reduction;
    config.checkpoint_dir = dir.string();
    const auto fresh = run(d.sequences, config);
    EXPECT_GT(fresh.provenance.counts.dsd_edges, 0u);

    // The fresh run leaves one provenance sidecar per phase.
    EXPECT_TRUE(fs::exists(dir / "rr.prov.jsonl"));
    EXPECT_TRUE(fs::exists(dir / "ccd.prov.jsonl"));
    EXPECT_TRUE(fs::exists(dir / "dsd.prov.jsonl"));

    config.resume = true;
    const auto resumed = run(d.sequences, config);
    EXPECT_EQ(resumed.phase_log,
              (std::vector<std::string>{"rr:resumed", "ccd:resumed",
                                        "families:resumed"}));
    EXPECT_EQ(prov::render_ledger(resumed.provenance),
              prov::render_ledger(fresh.provenance));
  }
}

TEST_F(ProvenanceResumeTest, DamagedSidecarIsReDerivedNotTrusted) {
  const auto d = make_data(306);
  PipelineConfig config = base_config();
  config.checkpoint_dir = dir_.string();
  const std::string fresh =
      prov::render_ledger(run(d.sequences, config).provenance);

  // Corrupt two sidecars differently: truncate one, garble the other.
  {
    std::ofstream out(dir_ / "rr.prov.jsonl",
                      std::ios::binary | std::ios::trunc);
    out << "{\"schema\":\"pclust-provenance-sidecar\"";  // cut mid-line
  }
  {
    std::ofstream out(dir_ / "ccd.prov.jsonl",
                      std::ios::binary | std::ios::app);
    out << "{\"phase\":\"ccd\"}\n";  // trailing junk edge
  }

  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(prov::render_ledger(resumed.provenance), fresh)
      << "a damaged sidecar must fall back to canonical re-derivation";
}

TEST_F(ProvenanceResumeTest, MissingSidecarsAreReDerived) {
  const auto d = make_data(307);
  for (const bigraph::Reduction reduction : kReductions) {
    SCOPED_TRACE(reduction == bigraph::Reduction::kDuplicate ? "B_d" : "B_m");
    const fs::path dir = dir_ / std::to_string(static_cast<int>(reduction));
    PipelineConfig config = base_config();
    config.reduction = reduction;
    config.checkpoint_dir = dir.string();
    const auto fresh = run(d.sequences, config);
    EXPECT_GT(fresh.provenance.counts.dsd_edges, 0u);

    fs::remove(dir / "rr.prov.jsonl");
    fs::remove(dir / "ccd.prov.jsonl");
    fs::remove(dir / "dsd.prov.jsonl");

    config.resume = true;
    const auto resumed = run(d.sequences, config);
    EXPECT_EQ(resumed.phase_log,
              (std::vector<std::string>{"rr:resumed", "ccd:resumed",
                                        "families:resumed"}));
    EXPECT_EQ(prov::render_ledger(resumed.provenance),
              prov::render_ledger(fresh.provenance));
    // The re-derived evidence is committed again for the next resume.
    EXPECT_TRUE(fs::exists(dir / "dsd.prov.jsonl"));
  }
}

TEST_F(ProvenanceResumeTest, CaptureOnResumeOfAProvenancelessRun) {
  // The original run never captured; a later resume asks for provenance.
  // Everything must be derived canonically from the checkpointed results.
  const auto d = make_data(308);
  PipelineConfig config;
  config.checkpoint_dir = dir_.string();
  (void)run(d.sequences, config);
  EXPECT_FALSE(fs::exists(dir_ / "rr.prov.jsonl"));

  const std::string golden =
      prov::render_ledger(run(d.sequences, base_config()).provenance);

  config.provenance = true;
  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(prov::render_ledger(resumed.provenance), golden);
}

TEST_F(ProvenanceResumeTest, PartialCcdResumeLedgerIdentical) {
  const auto d = make_data(309, 160);
  PipelineConfig config = base_config();
  config.checkpoint_dir = dir_.string();
  config.ccd_checkpoint_stride = 50;
  const auto fresh = run(d.sequences, config);
  const std::string golden = prov::render_ledger(fresh.provenance);

  // Reconstruct a mid-CCD partial the way the pipeline writes one (see
  // test_checkpoint_resume.cpp for the payload layout), then resume: the
  // spliced CCD provenance must come from canonical replay, since the
  // decision-time capture never saw the pre-watermark merges.
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
  ASSERT_TRUE(captured);

  util::CheckpointWriter partial;
  partial.u64(fingerprint);
  partial.f64(0.25);
  partial.u32(1);
  partial.u32_vec(snapshot.parents);
  partial.u64(snapshot.next_pair);
  util::write_checkpoint(dir_ / "ccd_partial.ckpt", /*phase_tag=*/2,
                         /*payload_version=*/3, partial);
  fs::remove(dir_ / "ccd.ckpt");
  fs::remove(dir_ / "ccd.prov.jsonl");
  fs::remove(dir_ / "families.ckpt");
  fs::remove(dir_ / "dsd.prov.jsonl");

  config.resume = true;
  const auto resumed = run(d.sequences, config);
  EXPECT_EQ(resumed.phase_log,
            (std::vector<std::string>{"rr:resumed", "ccd:resumed-partial",
                                      "families:computed"}));
  EXPECT_EQ(prov::render_ledger(resumed.provenance), golden);
}

TEST(PipelineProvenanceReport, SectionRendersAndValidates) {
  const auto d = make_data(310);
  const PipelineConfig config = base_config();
  const auto r = run(d.sequences, config);
  const std::string doc =
      render_report(r, config, {"families", "synthetic", "prov.jsonl"});
  const util::JsonValue report = util::parse_json(doc);

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;

  const util::JsonValue& prov_section = report.at("provenance");
  EXPECT_EQ(prov_section.at("path").as_string(), "prov.jsonl");
  EXPECT_EQ(prov_section.at("sequences").as_u64(), d.sequences.size());
  EXPECT_EQ(prov_section.at("edges").at("total").as_u64(),
            r.provenance.counts.total_edges());
  EXPECT_EQ(prov_section.at("merges").at("rr").as_u64(),
            r.provenance.counts.rr_merges);
  EXPECT_TRUE(prov_section.at("complete").bool_value);
}

TEST(PipelineProvenanceReport, TamperedIdentityFailsValidation) {
  const auto d = make_data(311);
  const PipelineConfig config = base_config();
  const auto r = run(d.sequences, config);
  std::string doc = render_report(r, config, {"families", "synthetic", ""});

  // An auditor flipping `complete` (or an incomplete capture) must fail
  // validation — the report enforces the merge identity, not just schema.
  const std::string::size_type at = doc.find("\"complete\":true");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 15, "\"complete\":false");
  std::string error;
  EXPECT_FALSE(validate_report(util::parse_json(doc), &error));
  EXPECT_NE(error.find("complete"), std::string::npos) << error;
}

TEST(PipelineProvenanceReport, EdgeMergeMismatchFailsValidation) {
  const auto d = make_data(312);
  const PipelineConfig config = base_config();
  const auto r = run(d.sequences, config);
  std::string doc = render_report(r, config, {"families", "synthetic", ""});

  // Desync one per-phase edge count from its merge count via text surgery
  // on the rendered document (the numbers appear in the provenance
  // section's edges object first).
  char needle[64];
  std::snprintf(needle, sizeof needle, "\"rr\":%llu",
                static_cast<unsigned long long>(r.provenance.counts.rr_edges));
  const std::string::size_type prov_at = doc.find("\"provenance\"");
  ASSERT_NE(prov_at, std::string::npos);
  const std::string::size_type at = doc.find(needle, prov_at);
  ASSERT_NE(at, std::string::npos);
  char bumped[64];
  std::snprintf(bumped, sizeof bumped, "\"rr\":%llu",
                static_cast<unsigned long long>(
                    r.provenance.counts.rr_edges + 1));
  doc.replace(at, std::string(needle).size(), bumped);
  std::string error;
  EXPECT_FALSE(validate_report(util::parse_json(doc), &error));
}

}  // namespace
}  // namespace pclust::pipeline
