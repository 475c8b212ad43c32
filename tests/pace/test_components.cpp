#include "pclust/pace/components.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "pclust/pace/redundancy.hpp"
#include "pclust/pace/reference.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {
namespace {

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 150) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 4;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.0;  // CCD runs on non-redundant input
  spec.noise_fraction = 0.20;
  spec.max_divergence = 0.20;
  return synth::generate(spec);
}

std::vector<seq::SeqId> all_ids(const seq::SequenceSet& set) {
  std::vector<seq::SeqId> ids(set.size());
  std::iota(ids.begin(), ids.end(), seq::SeqId{0});
  return ids;
}

using Partition = std::set<std::set<seq::SeqId>>;

Partition as_partition(const std::vector<std::vector<seq::SeqId>>& comps) {
  Partition out;
  for (const auto& c : comps) out.insert({c.begin(), c.end()});
  return out;
}

TEST(ComponentsSerial, CoversAllInputIds) {
  const auto d = make_data(31);
  const auto ids = all_ids(d.sequences);
  const auto r = detect_components_serial(d.sequences, ids);
  std::size_t total = 0;
  std::set<seq::SeqId> seen;
  for (const auto& c : r.components) {
    for (auto id : c) EXPECT_TRUE(seen.insert(id).second);
    total += c.size();
  }
  EXPECT_EQ(total, ids.size());
}

TEST(ComponentsSerial, DescendingSizeOrder) {
  const auto d = make_data(32);
  const auto r = detect_components_serial(d.sequences, all_ids(d.sequences));
  for (std::size_t i = 1; i < r.components.size(); ++i) {
    EXPECT_GE(r.components[i - 1].size(), r.components[i].size());
  }
}

TEST(ComponentsSerial, RefinesBruteForcePartition) {
  // Always-true invariant: the heuristic tests a SUBSET of all pairs with
  // the same predicate, so its partition refines the brute-force one —
  // every heuristic component lies inside one brute-force component.
  for (std::uint64_t seed : {33u, 34u, 35u}) {
    const auto d = make_data(seed, 80);
    const auto ids = all_ids(d.sequences);
    const auto heuristic = detect_components_serial(d.sequences, ids);
    const auto brute = detect_components_bruteforce(d.sequences, ids);
    std::vector<std::size_t> brute_comp(d.sequences.size());
    for (std::size_t c = 0; c < brute.size(); ++c) {
      for (auto id : brute[c]) brute_comp[id] = c;
    }
    for (const auto& comp : heuristic.components) {
      for (auto id : comp) {
        EXPECT_EQ(brute_comp[id], brute_comp[comp.front()])
            << "seed " << seed << ": heuristic component crosses "
            << "brute-force components";
      }
    }
  }
}

TEST(ComponentsSerial, MatchesBruteForceWithPermissivePsi) {
  // With ψ small enough to admit every true overlap of this data, the
  // partitions must agree exactly (DESIGN.md §6).
  PaceParams params;
  params.psi = 5;
  params.bucket_prefix = 3;
  for (std::uint64_t seed : {33u, 34u, 35u}) {
    const auto d = make_data(seed, 80);
    const auto ids = all_ids(d.sequences);
    const auto heuristic = detect_components_serial(d.sequences, ids, params);
    const auto brute = detect_components_bruteforce(d.sequences, ids);
    EXPECT_EQ(as_partition(heuristic.components), as_partition(brute))
        << "seed " << seed;
  }
}

TEST(ComponentsSerial, FamiliesLandInOneComponent) {
  const auto d = make_data(36);
  const auto r = detect_components_serial(d.sequences, all_ids(d.sequences));
  // Map each sequence to its component.
  std::vector<std::size_t> comp_of(d.sequences.size());
  for (std::size_t c = 0; c < r.components.size(); ++c) {
    for (auto id : r.components[c]) comp_of[id] = c;
  }
  // Members of one family should overwhelmingly share a component.
  for (const auto& family : d.truth.benchmark_clusters()) {
    std::map<std::size_t, std::size_t> votes;
    for (auto id : family) ++votes[comp_of[id]];
    std::size_t best = 0;
    for (const auto& [c, v] : votes) best = std::max(best, v);
    EXPECT_GE(best, family.size() * 8 / 10);
  }
}

TEST(ComponentsSerial, NoiseStaysSingleton) {
  const auto d = make_data(37);
  const auto r = detect_components_serial(d.sequences, all_ids(d.sequences));
  std::vector<std::size_t> comp_size(d.sequences.size());
  for (const auto& c : r.components) {
    for (auto id : c) comp_size[id] = c.size();
  }
  std::size_t grouped_noise = 0;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (d.truth.family[id] == -1 && comp_size[id] > 1) ++grouped_noise;
  }
  EXPECT_LE(grouped_noise, d.truth.noise_count() / 10);
}

TEST(ComponentsSerial, TransitiveClosureFiltersMostPairs) {
  // Within dense families almost every later pair is filtered without
  // alignment — the paper's central work-saving observation.
  const auto d = make_data(38, 300);
  const auto r = detect_components_serial(d.sequences, all_ids(d.sequences));
  EXPECT_GT(r.counters.filtered_pairs + r.counters.duplicate_pairs,
            r.counters.aligned_pairs);
}

TEST(ComponentsSerial, SubsetOfIdsHonored) {
  const auto d = make_data(39, 60);
  std::vector<seq::SeqId> ids;
  for (seq::SeqId id = 0; id < d.sequences.size(); id += 2) ids.push_back(id);
  const auto r = detect_components_serial(d.sequences, ids);
  std::size_t total = 0;
  for (const auto& c : r.components) {
    total += c.size();
    for (auto id : c) EXPECT_EQ(id % 2, 0u);
  }
  EXPECT_EQ(total, ids.size());
}

TEST(ComponentsSerial, LedgerHoldsUnionFindBesideTheIndex) {
  // The master's union–find lives through the index build, so the ledger
  // held both at once; the pair stream is charged beside them too.
  const auto d = make_data(41, 120);
  PaceParams params;
  params.phase_label = "ccd";
  util::metrics().reset();
  util::governor().configure(0);
  (void)detect_components_serial(d.sequences, all_ids(d.sequences), params);
  const auto total = [](const char* structure) {
    return util::metrics()
        .gauge(std::string("mem.ccd.") + structure + ".total")
        .max();
  };
  EXPECT_GT(total("suffix_index"), 0u);
  EXPECT_GT(total("union_find"), 0u);
  EXPECT_GT(total("pair_stream"), 0u);
  EXPECT_GE(util::governor().high_water(),
            total("suffix_index") + total("union_find") +
                total("pair_stream"));
  EXPECT_EQ(util::governor().ledger(), 0u);
}

TEST(ComponentsParallel, PartitionIdenticalToSerialForAnyP) {
  // DESIGN.md §6: identical results at any processor count.
  const auto d = make_data(40, 120);
  const auto ids = all_ids(d.sequences);
  const auto serial = detect_components_serial(d.sequences, ids);
  for (int p : {2, 3, 5, 9}) {
    const auto par =
        detect_components(d.sequences, ids, p, mpsim::MachineModel::free());
    EXPECT_EQ(as_partition(par.components), as_partition(serial.components))
        << "p=" << p;
  }
}

TEST(ComponentsParallel, PromisingPairsIndependentOfP) {
  const auto d = make_data(41, 100);
  const auto ids = all_ids(d.sequences);
  const auto a =
      detect_components(d.sequences, ids, 2, mpsim::MachineModel::free());
  const auto b =
      detect_components(d.sequences, ids, 7, mpsim::MachineModel::free());
  EXPECT_EQ(a.counters.promising_pairs, b.counters.promising_pairs);
}

TEST(ComponentsParallel, MakespanDecreasesWithMoreWorkers) {
  // RR+CCD-style scaling: more workers => shorter simulated time (on a
  // dataset big enough to amortize protocol overhead).
  synth::DatasetSpec spec;
  spec.seed = 42;
  spec.num_sequences = 500;
  spec.num_families = 6;
  spec.mean_length = 100;
  spec.noise_fraction = 0.2;
  spec.redundant_fraction = 0;
  const auto d = synth::generate(spec);
  const auto ids = all_ids(d.sequences);
  const auto t2 = detect_components(d.sequences, ids, 2,
                                    mpsim::MachineModel::bluegene_l());
  const auto t8 = detect_components(d.sequences, ids, 8,
                                    mpsim::MachineModel::bluegene_l());
  EXPECT_LT(t8.run.makespan, t2.run.makespan);
}

TEST(ComponentsResultHelpers, MinSizeQueries) {
  ComponentsResult r;
  r.components = {{1, 2, 3, 4, 5}, {6, 7}, {8}};
  EXPECT_EQ(r.count_with_min_size(1), 3u);
  EXPECT_EQ(r.count_with_min_size(2), 2u);
  EXPECT_EQ(r.count_with_min_size(5), 1u);
  EXPECT_EQ(r.sequences_in_min_size(2), 7u);
  EXPECT_EQ(r.sequences_in_min_size(6), 0u);
}

TEST(ComponentsSerial, PipelineAfterRedundancyRemoval) {
  // Integration: RR then CCD on survivors, as the pipeline runs them.
  synth::DatasetSpec spec;
  spec.seed = 43;
  spec.num_sequences = 200;
  spec.num_families = 4;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.2;
  const auto d = synth::generate(spec);
  const auto rr = remove_redundant_serial(d.sequences);
  const auto survivors = rr.survivors();
  EXPECT_LT(survivors.size(), d.sequences.size());
  const auto ccd = detect_components_serial(d.sequences, survivors);
  std::size_t total = 0;
  for (const auto& c : ccd.components) total += c.size();
  EXPECT_EQ(total, survivors.size());
  EXPECT_GE(ccd.count_with_min_size(5),
            3u);  // most families survive as components
}

}  // namespace
}  // namespace pclust::pace
