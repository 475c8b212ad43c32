// --mem-budget at the pipeline level: a generous budget changes nothing;
// a squeezed budget may only narrow the pooled drain, so families, the
// provenance ledger and every work counter stay the unbudgeted run's, and
// the run's report validates; and a hopeless budget exits structured at a
// phase boundary with flushed checkpoints so --resume with a larger budget
// completes bit-identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/metrics.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::pipeline {
namespace {

namespace fs = std::filesystem;

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 150) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 5;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

void expect_same_families(const PipelineResult& a, const PipelineResult& b) {
  ASSERT_EQ(a.families.size(), b.families.size());
  for (std::size_t i = 0; i < a.families.size(); ++i) {
    EXPECT_EQ(a.families[i].members, b.families[i].members) << "family " << i;
    EXPECT_DOUBLE_EQ(a.families[i].mean_degree, b.families[i].mean_degree);
    EXPECT_DOUBLE_EQ(a.families[i].density, b.families[i].density);
  }
}

/// One run as a budget must leave it: its families, provenance ledger and
/// registry counters, plus what the governor saw.
struct Observed {
  PipelineResult result;
  std::string ledger;
  util::MetricsSnapshot metrics;
  std::uint64_t high_water = 0;
  std::vector<util::DegradationEvent> events;
};

Observed observe(const synth::Dataset& d, const PipelineConfig& config) {
  util::metrics().reset();
  Observed o;
  o.result = run(d.sequences, config);
  o.metrics = util::metrics().snapshot();
  o.high_water = util::governor().high_water();
  o.events = util::governor().degradation_log();
  o.ledger = prov::render_ledger(o.result.provenance);
  return o;
}

/// The budget contract: the same families and ledger, and every registry
/// counter but memgov.degradations equal to the unbudgeted run's.
void expect_same_work(const Observed& golden, const Observed& budgeted) {
  expect_same_families(golden.result, budgeted.result);
  EXPECT_EQ(golden.ledger, budgeted.ledger);
  std::set<std::string> names;
  for (const auto& [name, value] : golden.metrics.counters) names.insert(name);
  for (const auto& [name, value] : budgeted.metrics.counters) {
    names.insert(name);
  }
  for (const std::string& name : names) {
    if (name == "memgov.degradations") continue;
    EXPECT_EQ(budgeted.metrics.counter(name), golden.metrics.counter(name))
        << name;
  }
}

TEST(ResourcePipelineTest, GenerousBudgetChangesNothing) {
  const auto d = make_data(81);
  PipelineConfig plain;
  const auto golden = run(d.sequences, plain);

  PipelineConfig budgeted = plain;
  budgeted.mem_budget_bytes = 8ull << 30;  // far above any test peak
  const auto result = run(d.sequences, budgeted);
  expect_same_families(golden, result);
  EXPECT_TRUE(util::governor().degradation_log().empty());
}

TEST(ResourcePipelineTest, SqueezedBudgetDegradesBitIdentically) {
  // A budget at 60% of the unbudgeted peak may only narrow the pooled
  // drain. One lane has no lever: it logs nothing and peaks where the
  // unbudgeted run did. Several lanes log at most bgg+dsd/shrink-drain.
  const auto d = make_data(82);
  for (const unsigned threads : {1u, 4u}) {
    PipelineConfig plain;
    plain.threads = threads;
    plain.provenance = true;
    const Observed golden = observe(d, plain);
    ASSERT_GT(golden.high_water, 0u);

    PipelineConfig budgeted = plain;
    budgeted.mem_budget_bytes = static_cast<std::uint64_t>(
        static_cast<double>(golden.high_water) * 0.6);
    const Observed squeezed = observe(d, budgeted);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_work(golden, squeezed);
    if (threads == 1) {
      EXPECT_TRUE(squeezed.events.empty());
      EXPECT_EQ(squeezed.high_water, golden.high_water);
    }
    for (const auto& e : squeezed.events) {
      EXPECT_EQ(e.phase, "bgg+dsd");
      EXPECT_EQ(e.action, "shrink-drain");
    }
  }
}

TEST(ResourcePipelineTest, HopelessBudgetExitsStructuredAndResumes) {
  const auto d = make_data(83);
  PipelineConfig plain;
  const auto golden = run(d.sequences, plain);

  const test::ScopedTempDir dir;

  PipelineConfig tiny = plain;
  tiny.checkpoint_dir = dir.string();
  tiny.mem_budget_bytes = 16 << 10;  // 16 KiB: no lever can save this
  EXPECT_THROW((void)run(d.sequences, tiny), util::MemoryBudgetExceeded);
  // The boundary that threw flushed its checkpoint first.
  EXPECT_TRUE(fs::exists(dir / "rr.ckpt"));

  // The operator re-runs with --resume and a workable budget; checkpoints
  // are fingerprint-compatible (the budget is a tuning knob, not part of
  // the result) and the finished run matches the unconstrained one.
  PipelineConfig retry = plain;
  retry.checkpoint_dir = dir.string();
  retry.resume = true;
  const auto resumed = run(d.sequences, retry);
  EXPECT_EQ(resumed.phase_log[0], "rr:resumed");
  expect_same_families(golden, resumed);
}

TEST(ResourcePipelineTest, BudgetNarrowsTheDrainBitIdentically) {
  // A budget RR alone fills: the ledger's high-water passes 70% of it
  // before the drain, so on several lanes the drain starts a component
  // graph only while no other is in flight. The families stay the
  // unbudgeted run's, the lever is recorded once as a
  // bgg+dsd/shrink-drain event, and the report carrying it validates.
  // One lane has nothing to narrow.
  synth::DatasetSpec spec;
  spec.seed = 85;
  spec.num_sequences = 260;
  spec.num_families = 8;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.1;
  spec.noise_fraction = 0.1;
  const auto d = synth::generate(spec);
  PipelineConfig plain;
  plain.reduction = bigraph::Reduction::kMatchBased;
  plain.threads = 4;
  util::metrics().reset();
  const auto golden = run(d.sequences, plain);
  ASSERT_GE(golden.components_min_size, 2u);
  const std::uint64_t rr_peak =
      util::metrics().gauge("mem.rr.suffix_index.total").max() +
      util::metrics().gauge("mem.rr.pair_stream.total").max();
  ASSERT_GT(rr_peak, 0u);

  const auto drain_events = [] {
    std::size_t n = 0;
    for (const auto& e : util::governor().degradation_log()) {
      if (e.action != "shrink-drain") continue;
      EXPECT_EQ(e.phase, "bgg+dsd");
      ++n;
    }
    return n;
  };
  for (const unsigned threads : {4u, 1u}) {
    PipelineConfig budgeted = plain;
    budgeted.threads = threads;
    budgeted.mem_budget_bytes = rr_peak;
    const auto result = run(d.sequences, budgeted);
    expect_same_families(golden, result);
    EXPECT_EQ(drain_events(), threads > 1 ? 1u : 0u) << "threads=" << threads;
    std::string error;
    EXPECT_TRUE(validate_report(
        util::parse_json(render_report(result, budgeted,
                                       {"families", "synthetic", ""})),
        &error))
        << "threads=" << threads << ": " << error;
  }
}

TEST(ResourcePipelineTest, AccountingRunsEvenUnbudgeted) {
  const auto d = make_data(84);
  PipelineConfig plain;
  (void)run(d.sequences, plain);
  // The capacity ledger always runs so a golden run's peak can calibrate
  // a later budgeted run (chaos class 8).
  EXPECT_GT(util::governor().high_water(), 0u);
  EXPECT_GT(util::metrics().gauge("memgov.high_water_bytes").max(), 0u);
}

}  // namespace
}  // namespace pclust::pipeline
