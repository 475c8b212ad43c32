// Tests of the batched parallel Shingle stage (paper §VI future work).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pipeline {
namespace {

synth::Dataset dsd_data(std::uint64_t seed) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = 400;
  spec.num_families = 8;
  spec.mean_length = 90;
  spec.redundant_fraction = 0.1;
  spec.noise_fraction = 0.15;
  spec.max_divergence = 0.18;
  return synth::generate(spec);
}

PipelineConfig dsd_config(int dsd_processors) {
  PipelineConfig config;
  config.shingle.s1 = 3;
  config.shingle.c1 = 80;
  config.shingle.s2 = 2;
  config.shingle.tau = 0.4;
  config.dsd_processors = dsd_processors;
  return config;
}

using FamilySet = std::set<std::vector<seq::SeqId>>;

FamilySet family_set(const PipelineResult& r) {
  FamilySet out;
  for (const auto& f : r.families) out.insert(f.members);
  return out;
}

TEST(ParallelDsd, SameFamiliesAsSerial) {
  const auto d = dsd_data(101);
  const auto serial = run(d.sequences, dsd_config(0));
  for (int p : {2, 3, 6}) {
    const auto parallel = run(d.sequences, dsd_config(p));
    EXPECT_EQ(family_set(parallel), family_set(serial)) << "p=" << p;
  }
}

TEST(ParallelDsd, ReportsSimulatedMakespan) {
  const auto d = dsd_data(102);
  const auto serial = run(d.sequences, dsd_config(0));
  EXPECT_DOUBLE_EQ(serial.dsd_run.makespan, 0.0);
  const auto parallel = run(d.sequences, dsd_config(4));
  EXPECT_GT(parallel.dsd_run.makespan, 0.0);
}

TEST(ParallelDsd, MoreRanksNoSlowerMakespan) {
  const auto d = dsd_data(103);
  const auto p2 = run(d.sequences, dsd_config(2));
  const auto p8 = run(d.sequences, dsd_config(8));
  // LPT batching: more ranks can only reduce (or equal, when one giant
  // component dominates) the simulated makespan.
  EXPECT_LE(p8.dsd_run.makespan, p2.dsd_run.makespan + 1e-9);
}

TEST(ParallelDsd, DensityStatsUnaffected) {
  const auto d = dsd_data(104);
  const auto serial = run(d.sequences, dsd_config(0));
  const auto parallel = run(d.sequences, dsd_config(4));
  EXPECT_DOUBLE_EQ(serial.mean_density, parallel.mean_density);
  EXPECT_EQ(serial.largest_subgraph, parallel.largest_subgraph);
}

TEST(ParallelDsd, WorksWithMatchBasedReduction) {
  const auto d = dsd_data(105);
  PipelineConfig config = dsd_config(3);
  config.reduction = bigraph::Reduction::kMatchBased;
  config.bm.w = 8;
  const auto r = run(d.sequences, config);
  EXPECT_GT(r.dense_subgraph_count, 0u);
}

TEST(ParallelDsd, MoreRanksThanComponentsIsSafe) {
  const auto d = dsd_data(106);
  const auto r = run(d.sequences, dsd_config(64));
  EXPECT_GT(r.dense_subgraph_count, 0u);
}

// ---- fault tolerance --------------------------------------------------
// DSD verdicts land in graph-keyed slots and families are assembled in
// ascending graph order, so a healed run is EXACTLY equal to the serial
// one — ordered members, degree, density — not merely set-equal.

void expect_identical_families(const PipelineResult& a,
                               const PipelineResult& b) {
  ASSERT_EQ(a.families.size(), b.families.size());
  for (std::size_t i = 0; i < a.families.size(); ++i) {
    EXPECT_EQ(a.families[i].members, b.families[i].members) << "family " << i;
    EXPECT_DOUBLE_EQ(a.families[i].mean_degree, b.families[i].mean_degree);
    EXPECT_DOUBLE_EQ(a.families[i].density, b.families[i].density);
  }
}

TEST(ParallelDsd, CrashedWorkerHealsBitIdentically) {
  const auto d = dsd_data(107);
  const auto serial = run(d.sequences, dsd_config(0));

  mpsim::FaultPlan plan;
  plan.crashes.push_back({1, 0.0});  // worker dies before doing anything
  PipelineConfig config = dsd_config(4);
  config.dsd_fault_plan = &plan;
  const auto healed = run(d.sequences, config);

  expect_identical_families(healed, serial);
  EXPECT_EQ(healed.dsd_run.crashed_ranks, std::vector<int>{1});
  EXPECT_EQ(healed.dsd_run.counter("workers_failed"), 1u);
  EXPECT_GE(healed.dsd_run.counter("streams_adopted"), 1u);
  EXPECT_FALSE(healed.dsd_run.fault_events.empty());
}

TEST(ParallelDsd, AllButOneWorkerCrashedStillIdentical) {
  const auto d = dsd_data(108);
  const auto serial = run(d.sequences, dsd_config(0));

  mpsim::FaultPlan plan;
  plan.crashes.push_back({1, 0.0});
  plan.crashes.push_back({3, 0.0});
  PipelineConfig config = dsd_config(4);  // only worker 2 survives
  config.dsd_fault_plan = &plan;
  const auto healed = run(d.sequences, config);

  expect_identical_families(healed, serial);
  EXPECT_EQ(healed.dsd_run.crashed_ranks, (std::vector<int>{1, 3}));
  EXPECT_EQ(healed.dsd_run.counter("workers_failed"), 2u);
}

TEST(ParallelDsd, DropDuplicateStragglerLinksBitIdentical) {
  const auto d = dsd_data(109);
  const auto serial = run(d.sequences, dsd_config(0));

  mpsim::FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 0.3;
  plan.duplicate_probability = 0.3;
  plan.straggler_factor = {1.0, 1.0, 4.0};
  PipelineConfig config = dsd_config(3);
  config.dsd_fault_plan = &plan;
  const auto faulted = run(d.sequences, config);

  expect_identical_families(faulted, serial);
  EXPECT_TRUE(faulted.dsd_run.crashed_ranks.empty());
}

TEST(ParallelDsd, HierarchicalMastersMatchFlatFamilies) {
  const auto d = dsd_data(111);
  const auto serial = run(d.sequences, dsd_config(0));

  PipelineConfig config = dsd_config(6);
  config.pace.masters = 2;  // root + 2 sub-masters + 3 workers
  const auto hier = run(d.sequences, config);
  expect_identical_families(hier, serial);
  EXPECT_EQ(hier.dsd_run.counter("submasters_failed"), 0u);
}

TEST(ParallelDsd, SubMasterCrashHealsBitIdentically) {
  // DSD slot assignment is graph-keyed and first-wins, so replaying a dead
  // sub-master's event log and re-homing its workers must reproduce the
  // serial families exactly — same contract as the CCD union–find.
  const auto d = dsd_data(112);
  const auto serial = run(d.sequences, dsd_config(0));

  mpsim::FaultPlan plan;
  plan.crashes.push_back({1, 0.0});  // sub-master 1 dies immediately
  PipelineConfig config = dsd_config(6);
  config.pace.masters = 2;
  config.dsd_fault_plan = &plan;
  const auto healed = run(d.sequences, config);

  expect_identical_families(healed, serial);
  EXPECT_EQ(healed.dsd_run.crashed_ranks, std::vector<int>{1});
  EXPECT_EQ(healed.dsd_run.counter("submasters_failed"), 1u);
  EXPECT_GE(healed.dsd_run.counter("workers_rehomed"), 1u);
}

TEST(ParallelDsd, MasterCrashPlanIsRejected) {
  const auto d = dsd_data(110);
  mpsim::FaultPlan plan;
  plan.crashes.push_back({0, 1.0});  // rank 0 is the unrecoverable master
  PipelineConfig config = dsd_config(3);
  config.dsd_fault_plan = &plan;
  EXPECT_THROW(run(d.sequences, config), std::invalid_argument);
}

TEST(ParallelDsd, UnsurvivablePlanRejectedBeforeAnyPhase) {
  // Every plan is checked against the layout its phase runs on before RR
  // starts, so a plan no run can survive costs no pair work at all.
  const auto d = dsd_data(113);
  mpsim::FaultPlan first_two;  // ranks 1 and 2 die before doing anything
  first_two.crashes = {{1, 0.0}, {2, 0.0}};

  PipelineConfig flat_dsd = dsd_config(3);  // both DSD workers
  flat_dsd.dsd_fault_plan = &first_two;
  PipelineConfig tree_dsd = dsd_config(4);  // both DSD sub-masters
  tree_dsd.processors = 4;
  tree_dsd.pace.masters = 2;
  tree_dsd.dsd_fault_plan = &first_two;
  PipelineConfig tree_ccd = dsd_config(0);  // both CCD sub-masters
  tree_ccd.processors = 6;
  tree_ccd.pace.masters = 2;
  tree_ccd.ccd_fault_plan = &first_two;

  for (const PipelineConfig* config : {&flat_dsd, &tree_dsd, &tree_ccd}) {
    util::metrics().reset();
    EXPECT_THROW(run(d.sequences, *config), std::invalid_argument);
    EXPECT_EQ(util::metrics().counter("pace.promising_pairs").value(), 0u)
        << "processors=" << config->processors
        << " dsd_processors=" << config->dsd_processors;
  }
}

}  // namespace
}  // namespace pclust::pipeline
