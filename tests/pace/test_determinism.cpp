// Thread-count independence of the PaCE phases: the final cluster STATE
// (removed/container for RR, the component partition for CCD) must be
// bit-identical for every pool size, and so must run_serial's
// engine counters.
#include <gtest/gtest.h>

#include "pclust/exec/pool.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/pace/reference.hpp"
#include "pclust/synth/generator.hpp"

namespace pclust::pace {
namespace {

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 160) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 5;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

/// The one-pair-at-a-time schedule's counters: every field of a batched
/// run but the speculative alignments it paid for.
EngineCounters decisive(EngineCounters c) {
  c.speculative_pairs = 0;
  return c;
}

/// Parameters that flush after every admitted pair: the one-pair-at-a-time
/// schedule, which can never align speculatively.
PaceParams one_pair_at_a_time() {
  PaceParams params;
  params.batch_size = 1;
  return params;
}

TEST(Determinism, SerialRrStateIndependentOfThreads) {
  const auto d = make_data(31);
  const auto golden =
      remove_redundant_serial(d.sequences, one_pair_at_a_time());
  EXPECT_EQ(golden.counters.speculative_pairs, 0u);
  const auto batched = remove_redundant_serial(d.sequences);
  EXPECT_EQ(decisive(batched.counters), golden.counters);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::Pool pool(threads);
    const auto r = remove_redundant_serial(d.sequences, {}, &pool);
    EXPECT_EQ(r.removed, golden.removed) << "threads=" << threads;
    EXPECT_EQ(r.container, golden.container) << "threads=" << threads;
    EXPECT_EQ(r.counters, batched.counters) << "threads=" << threads;
  }
}

TEST(Determinism, SerialCcdStateIndependentOfThreads) {
  const auto d = make_data(32);
  const auto survivors = remove_redundant_serial(d.sequences).survivors();
  const auto golden =
      detect_components_serial(d.sequences, survivors, one_pair_at_a_time());
  EXPECT_EQ(golden.counters.speculative_pairs, 0u);
  const auto batched = detect_components_serial(d.sequences, survivors);
  EXPECT_EQ(decisive(batched.counters), golden.counters);
  // Batching does align ahead of the filter on this workload; the re-check
  // keeps that work out of every other counter.
  EXPECT_GT(batched.counters.speculative_pairs, 0u);
  EXPECT_LE(batched.counters.speculative_pairs,
            batched.counters.filtered_pairs);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::Pool pool(threads);
    const auto r = detect_components_serial(d.sequences, survivors, {}, &pool);
    EXPECT_EQ(r.components, golden.components) << "threads=" << threads;
    EXPECT_EQ(r.counters, batched.counters) << "threads=" << threads;
  }
}

TEST(Determinism, SimulatedRrStateIndependentOfThreads) {
  const auto d = make_data(33);
  const auto golden =
      remove_redundant(d.sequences, 4, mpsim::MachineModel::free());
  for (unsigned threads : {2u, 8u}) {
    exec::Pool pool(threads);
    const auto r =
        remove_redundant(d.sequences, 4, mpsim::MachineModel::free(), {},
                         &pool);
    EXPECT_EQ(r.removed, golden.removed) << "threads=" << threads;
    EXPECT_EQ(r.container, golden.container) << "threads=" << threads;
    // The virtual clock is charged serially in task order, so even the
    // simulated makespan must not depend on the real thread count.
    EXPECT_EQ(r.run.makespan, golden.run.makespan) << "threads=" << threads;
  }
}

TEST(Determinism, SimulatedCcdStateIndependentOfThreads) {
  const auto d = make_data(34);
  const auto survivors = remove_redundant_serial(d.sequences).survivors();
  const auto golden = detect_components(d.sequences, survivors, 3,
                                        mpsim::MachineModel::free());
  for (unsigned threads : {2u, 8u}) {
    exec::Pool pool(threads);
    const auto r = detect_components(d.sequences, survivors, 3,
                                     mpsim::MachineModel::free(), {}, &pool);
    EXPECT_EQ(r.components, golden.components) << "threads=" << threads;
    EXPECT_EQ(r.run.makespan, golden.run.makespan) << "threads=" << threads;
  }
}

TEST(Determinism, BruteForceCcdMatchesSerialIncludingStats) {
  const auto d = make_data(35, 60);
  std::vector<seq::SeqId> ids(d.sequences.size());
  for (seq::SeqId i = 0; i < d.sequences.size(); ++i) ids[i] = i;
  BruteForceStats golden_stats;
  const auto golden =
      detect_components_bruteforce(d.sequences, ids, {}, &golden_stats);
  for (unsigned threads : {2u, 8u}) {
    exec::Pool pool(threads);
    BruteForceStats stats;
    const auto r =
        detect_components_bruteforce(d.sequences, ids, {}, &stats, &pool);
    EXPECT_EQ(r, golden) << "threads=" << threads;
    // Brute force has no order-dependent filter: stats match exactly too.
    EXPECT_EQ(stats.alignments, golden_stats.alignments);
    EXPECT_EQ(stats.cells, golden_stats.cells);
  }
}

}  // namespace
}  // namespace pclust::pace
