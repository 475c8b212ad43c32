// Pooled job building and verdict read-back: the engine builds each task's
// alignment jobs, and reads its verdict back, on the pool's lanes into
// task-indexed slots. Every verdict, in application order, and every
// counter must equal the one-lane run's, in run_serial and on the
// simulated ranks that share the pool.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pclust/exec/pool.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/synth/generator.hpp"

namespace pclust::pace {
namespace {

synth::Dataset make_data(std::uint64_t seed) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = 180;
  spec.num_families = 5;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.2;
  spec.noise_fraction = 0.1;
  return synth::generate(spec);
}

std::vector<seq::SeqId> all_ids(const seq::SequenceSet& set) {
  std::vector<seq::SeqId> ids(set.size());
  for (seq::SeqId id = 0; id < set.size(); ++id) ids[id] = id;
  return ids;
}

/// Admits every pair and records every verdict it is handed, in order.
class RecordingMaster final : public MasterPolicy {
 public:
  bool needs_alignment(const PairTask&) override { return true; }
  void apply(const Verdict& v) override { verdicts.push_back(v); }
  std::vector<Verdict> verdicts;
};

void expect_same_verdicts(const std::vector<Verdict>& want,
                          const std::vector<Verdict>& got,
                          const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const Verdict& w = want[k];
    const Verdict& g = got[k];
    const std::string at = what + " verdict=" + std::to_string(k);
    EXPECT_EQ(w.a, g.a) << at;
    EXPECT_EQ(w.b, g.b) << at;
    EXPECT_EQ(w.code, g.code) << at;
    EXPECT_EQ(w.score, g.score) << at;
    EXPECT_EQ(w.matches, g.matches) << at;
    EXPECT_EQ(w.columns, g.columns) << at;
    EXPECT_EQ(w.a_span, g.a_span) << at;
    EXPECT_EQ(w.b_span, g.b_span) << at;
    EXPECT_EQ(w.alignments, g.alignments) << at;
    EXPECT_EQ(w.cells, g.cells) << at;
    EXPECT_EQ(w.gated, g.gated) << at;
    EXPECT_EQ(w.scanned, g.scanned) << at;
  }
}

TEST(PooledEvaluateTasks, CcdVerdictsMatchOneLane) {
  const auto d = make_data(41);
  const auto ids = all_ids(d.sequences);
  PaceParams params;
  params.batch_size = 100;  // several flushes, none a multiple of the lanes
  const CcdWorker worker(d.sequences, params);

  RecordingMaster golden;
  const EngineCounters want =
      run_serial(d.sequences, ids, params, golden, worker);
  ASSERT_GT(golden.verdicts.size(), 2 * params.batch_size);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    exec::Pool pool(threads);
    RecordingMaster master;
    const EngineCounters got =
        run_serial(d.sequences, ids, params, master, worker, &pool);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(got, want) << what;
    expect_same_verdicts(golden.verdicts, master.verdicts, what);
  }
}

TEST(PooledEvaluateTasks, RrGateAndCountersMatchOneLane) {
  // RR's q-gram gate runs while jobs are built, so it now runs on every
  // lane; the gated and aligned directions, their cells and the removal
  // state must still be the one-lane run's.
  const auto d = make_data(42);
  PaceParams params;
  params.batch_size = 60;
  const RedundancyResult golden = remove_redundant_serial(d.sequences, params);
  ASSERT_GT(golden.gated_directions, 0u);
  ASSERT_GT(golden.aligned_directions, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    exec::Pool pool(threads);
    const RedundancyResult r =
        remove_redundant_serial(d.sequences, params, &pool);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(r.removed, golden.removed) << what;
    EXPECT_EQ(r.container, golden.container) << what;
    EXPECT_EQ(r.counters, golden.counters) << what;
    EXPECT_EQ(r.gated_directions, golden.gated_directions) << what;
    EXPECT_EQ(r.aligned_directions, golden.aligned_directions) << what;
    EXPECT_EQ(r.cells, golden.cells) << what;
  }
}

TEST(PooledEvaluateTasks, SimulatedRanksSharingThePoolMatchOneLane) {
  // Simulated workers evaluate their chunks on the shared pool; the
  // verdicts, the counters and the virtual clock must not see it.
  const auto d = make_data(43);
  const auto ids = all_ids(d.sequences);
  PaceParams params;
  const CcdWorker worker(d.sequences, params);
  RecordingMaster golden;
  EngineCounters want;
  const mpsim::RunResult base =
      run_parallel(d.sequences, ids, 4, mpsim::MachineModel::free(), params,
                   golden, worker, &want);
  for (const unsigned threads : {2u, 4u}) {
    exec::Pool pool(threads);
    RecordingMaster master;
    EngineCounters got;
    const mpsim::RunResult run =
        run_parallel(d.sequences, ids, 4, mpsim::MachineModel::free(),
                     params, master, worker, &got, &pool);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(got, want) << what;
    EXPECT_EQ(run.makespan, base.makespan) << what;
    expect_same_verdicts(golden.verdicts, master.verdicts, what);
  }
}

}  // namespace
}  // namespace pclust::pace
