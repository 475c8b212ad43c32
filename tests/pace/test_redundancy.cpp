#include "pclust/pace/redundancy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pclust/align/predicates.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/pace/reference.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::pace {
namespace {

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 200) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 4;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.20;
  return synth::generate(spec);
}

/// The order-independent correctness property of RR (DESIGN.md §6):
/// every removed sequence is contained in a surviving one, and its recorded
/// container is genuine.
void check_rr_invariants(const seq::SequenceSet& set,
                         const RedundancyResult& r) {
  ASSERT_EQ(r.removed.size(), set.size());
  for (seq::SeqId id = 0; id < set.size(); ++id) {
    if (!r.removed[id]) {
      EXPECT_EQ(r.container[id], seq::kInvalidSeqId);
      continue;
    }
    const seq::SeqId keeper = r.container[id];
    ASSERT_NE(keeper, seq::kInvalidSeqId);
    EXPECT_FALSE(r.removed[keeper])
        << set.name(id) << " removed into removed " << set.name(keeper);
    EXPECT_TRUE(align::test_containment(set.residues(id),
                                        set.residues(keeper),
                                        align::blosum62())
                    .accepted)
        << set.name(id) << " not actually contained in " << set.name(keeper);
  }
}

TEST(RedundancySerial, InvariantsHold) {
  const auto d = make_data(11);
  const auto r = remove_redundant_serial(d.sequences);
  check_rr_invariants(d.sequences, r);
}

TEST(RedundancySerial, FindsInjectedDuplicates) {
  const auto d = make_data(12);
  const auto r = remove_redundant_serial(d.sequences);
  // Every injected duplicate shares a >= psi exact match with its source,
  // so RR must remove (at least) roughly the injected fraction.
  std::size_t injected = d.truth.redundant_count();
  EXPECT_GE(r.removed_count(), injected * 9 / 10);
  // And it must not wipe out the data set.
  EXPECT_LT(r.removed_count(), d.sequences.size() / 2);
}

TEST(RedundancySerial, InjectedDuplicatesRemovedSpecifically) {
  const auto d = make_data(13);
  const auto r = remove_redundant_serial(d.sequences);
  std::size_t missed = 0;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (d.truth.redundant[id] && !r.removed[id]) ++missed;
  }
  // A duplicate can occasionally survive when its source was itself removed
  // first; allow a small tail.
  EXPECT_LE(missed, d.truth.redundant_count() / 10);
}

TEST(RedundancySerial, NoiseNeverRemoved) {
  const auto d = make_data(14);
  const auto r = remove_redundant_serial(d.sequences);
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (d.truth.family[id] == -1) {
      EXPECT_FALSE(r.removed[id]) << "noise " << d.sequences.name(id);
    }
  }
}

TEST(RedundancySerial, SurvivorsPlusRemovedIsAll) {
  const auto d = make_data(15);
  const auto r = remove_redundant_serial(d.sequences);
  EXPECT_EQ(r.survivors().size() + r.removed_count(), d.sequences.size());
}

TEST(RedundancySerial, CountersConsistent) {
  const auto d = make_data(16);
  const auto r = remove_redundant_serial(d.sequences);
  EXPECT_EQ(r.counters.promising_pairs,
            r.counters.duplicate_pairs + r.counters.filtered_pairs +
                r.counters.aligned_pairs);
  EXPECT_GT(r.counters.promising_pairs, 0u);
}

TEST(RedundancyParallel, MatchesSerialInvariants) {
  const auto d = make_data(17);
  const auto r =
      remove_redundant(d.sequences, 4, mpsim::MachineModel::free());
  check_rr_invariants(d.sequences, r);
}

TEST(RedundancyParallel, SameRemovalCountAcrossProcessorCounts) {
  const auto d = make_data(18);
  const auto serial = remove_redundant_serial(d.sequences);
  for (int p : {2, 3, 8}) {
    const auto par =
        remove_redundant(d.sequences, p, mpsim::MachineModel::free());
    // The removed SET can differ slightly with verdict order (removal
    // chains), but the invariants hold and the counts agree closely.
    check_rr_invariants(d.sequences, par);
    EXPECT_NEAR(static_cast<double>(par.removed_count()),
                static_cast<double>(serial.removed_count()),
                static_cast<double>(serial.removed_count()) * 0.1 + 2);
  }
}

TEST(RedundancyParallel, PromisingPairsMatchSerial) {
  const auto d = make_data(19, 120);
  const auto serial = remove_redundant_serial(d.sequences);
  const auto par =
      remove_redundant(d.sequences, 5, mpsim::MachineModel::free());
  // Pair generation is partition-independent.
  EXPECT_EQ(par.counters.promising_pairs, serial.counters.promising_pairs);
}

TEST(RedundancyParallel, VirtualTimePositiveUnderRealModel) {
  const auto d = make_data(20, 120);
  const auto r =
      remove_redundant(d.sequences, 4, mpsim::MachineModel::bluegene_l());
  EXPECT_GT(r.run.makespan, 0.0);
  EXPECT_EQ(r.run.rank_times.size(), 4u);
}

TEST(RedundancyParallel, RequiresTwoRanks) {
  const auto d = make_data(21, 60);
  EXPECT_THROW(
      remove_redundant(d.sequences, 1, mpsim::MachineModel::free()),
      std::invalid_argument);
}

TEST(Redundancy, OneSidedGateReadsTheRightDirection) {
  // A fragment and its source: only the fragment-in-source direction passes
  // the length gate, so each pair aligns one job, and the verdict must read
  // that job's result as the fragment's direction whichever id it has.
  util::Xoshiro256 rng(4401);
  std::string source(200, 'A');
  for (char& c : source) {
    c = seq::rank_to_char(
        static_cast<std::uint8_t>(rng.below(seq::kNumResidues)));
  }
  const std::string fragment = source.substr(40, 100);
  for (const bool fragment_first : {true, false}) {
    seq::SequenceSet set;
    if (fragment_first) set.add("fragment", fragment);
    set.add("source", source);
    if (!fragment_first) set.add("fragment", fragment);
    const seq::SeqId frag = fragment_first ? 0 : 1;
    const seq::SeqId src = 1 - frag;
    const auto check = [&](const RedundancyResult& r, const char* run) {
      SCOPED_TRACE(std::string(run) +
                   (fragment_first ? ", fragment first" : ", source first"));
      EXPECT_EQ(r.removed, (std::vector<std::uint8_t>{frag == 0, frag == 1}));
      EXPECT_EQ(r.container[frag], src);
      EXPECT_EQ(r.counters.aligned_pairs, 1u);
    };
    check(remove_redundant_serial(set), "serial");
    check(remove_redundant(set, 3, mpsim::MachineModel::free()), "p=3");
  }
}

TEST(Redundancy, LengthGateSkipsAContainedDirection) {
  // Definition 1 only forces n >= s·c·m, but the length gate skips an
  // inner longer than outer/c. Here the inner (m = 100) is the outer
  // (n = 91) with 5 residues in front and 4 inside: 91 of its 95 aligned
  // columns match (0.958) over 95 % of it, yet 95 > 91 keeps that
  // direction from being aligned. The outer is contained in the inner
  // too, so RR still removes one of them; only the mutual tie-break
  // (remove the larger id) is lost, and the outer goes.
  util::Xoshiro256 rng(2020);
  const auto residues = [&](std::size_t len) {
    std::string out(len, 'A');
    for (char& c : out) {
      c = seq::rank_to_char(
          static_cast<std::uint8_t>(rng.below(seq::kNumResidues)));
    }
    return out;
  };
  const std::string left = residues(45);
  const std::string right = residues(46);
  seq::SequenceSet set;
  set.add("outer", left + right);
  set.add("inner", residues(5) + left + residues(4) + right);
  const auto in_outer = align::test_containment(
      set.residues(1), set.residues(0), align::blosum62());
  ASSERT_TRUE(in_outer.accepted);
  EXPECT_EQ(in_outer.alignment.matches, 91u);
  EXPECT_EQ(in_outer.alignment.columns, 95u);
  ASSERT_TRUE(align::test_containment(set.residues(0), set.residues(1),
                                      align::blosum62())
                  .accepted);

  const auto r = remove_redundant_serial(set);
  EXPECT_EQ(r.removed_count(), 1u);
  EXPECT_EQ(r.counters.aligned_pairs, 1u);
  EXPECT_EQ(r.removed, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_EQ(r.container[0], seq::SeqId{1});
}

TEST(RedundancyGate, QgramGateChangesNoDecisionOrCounter) {
  // The gate only skips alignments Definition 1 rejects, so removals,
  // containers and every engine counter match the align-every-direction
  // worker's on each schedule.
  const auto d = make_data(31, 240);
  const auto expect_same = [](const RedundancyResult& on,
                              const RedundancyResult& off,
                              const std::string& run) {
    SCOPED_TRACE(run);
    EXPECT_EQ(on.removed, off.removed);
    EXPECT_EQ(on.container, off.container);
    EXPECT_EQ(on.counters, off.counters);
    // Each gated direction is one the align-every-direction worker aligns.
    EXPECT_GT(on.gated_directions, 0u);
    EXPECT_EQ(off.gated_directions, 0u);
    EXPECT_EQ(on.aligned_directions + on.gated_directions,
              off.aligned_directions);
    EXPECT_LT(on.cells, off.cells);
  };
  exec::Pool pool(4);
  for (const std::uint32_t band : {0u, 32u}) {
    PaceParams on;
    on.band = band;
    PaceParams off = on;
    off.qgram_gate = false;
    const std::string tag = "band " + std::to_string(band);
    const auto serial = remove_redundant_serial(d.sequences, on);
    expect_same(serial, remove_redundant_serial(d.sequences, off),
                tag + ", threads 1");
    const auto pooled = remove_redundant_serial(d.sequences, on, &pool);
    expect_same(pooled, remove_redundant_serial(d.sequences, off, &pool),
                tag + ", threads 4");
    EXPECT_EQ(pooled.gated_directions, serial.gated_directions) << tag;
    expect_same(
        remove_redundant(d.sequences, 4, mpsim::MachineModel::free(), on),
        remove_redundant(d.sequences, 4, mpsim::MachineModel::free(), off),
        tag + ", p = 4");
    SerialHooks resume;
    resume.start_pair = serial.counters.promising_pairs / 2;
    expect_same(remove_redundant_serial(d.sequences, on, nullptr, &resume),
                remove_redundant_serial(d.sequences, off, nullptr, &resume),
                tag + ", resumed mid-stream");
  }
}

TEST(RedundancyGate, SimulatedWorkersPayForTheScan) {
  // A gated direction charges its scanned residues, not the DP cells it
  // skipped: simulated RR gets cheaper but not free.
  const auto d = make_data(32, 160);
  PaceParams off;
  off.qgram_gate = false;
  const auto model = mpsim::MachineModel::bluegene_l();
  const auto gated = remove_redundant(d.sequences, 4, model);
  const auto aligned = remove_redundant(d.sequences, 4, model, off);
  EXPECT_LT(gated.run.makespan, aligned.run.makespan);
  EXPECT_EQ(gated.removed, aligned.removed);
  // RR charges hashes only for the gate's scans.
  mpsim::MachineModel free_scans = model;
  free_scans.hash_cost = 0.0;
  EXPECT_LT(remove_redundant(d.sequences, 4, free_scans).run.makespan,
            gated.run.makespan);
}

TEST(RedundancyVsBruteForce, NoSurvivorContainedInSurvivor) {
  // After RR, no surviving sequence may be contained in another survivor
  // that shares a psi-length match (the filter's completeness guarantee).
  const auto d = make_data(22, 100);
  const auto r = remove_redundant_serial(d.sequences);
  const auto survivors = r.survivors();
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    for (std::size_t j = 0; j < survivors.size(); ++j) {
      if (i == j) continue;
      const auto inner = d.sequences.residues(survivors[i]);
      const auto outer = d.sequences.residues(survivors[j]);
      const auto out =
          align::test_containment(inner, outer, align::blosum62());
      if (!out.accepted) continue;
      // Containment at >= 95 % similarity over >= 10 residues implies a
      // 10-residue exact match only if the region is long enough; tolerate
      // short-sequence corner cases below 2 * psi.
      EXPECT_LT(inner.size(), 20u)
          << d.sequences.name(survivors[i]) << " still contained in "
          << d.sequences.name(survivors[j]);
    }
  }
}

TEST(BruteForceReference, AgreesOnInjectedDuplicates) {
  const auto d = make_data(23, 80);
  BruteForceStats stats;
  const auto removed =
      remove_redundant_bruteforce(d.sequences, PaceParams{}, &stats);
  EXPECT_EQ(stats.alignments, 80ull * 79 / 2);
  std::size_t found = 0;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    if (d.truth.redundant[id] && removed[id]) ++found;
  }
  EXPECT_GE(found, d.truth.redundant_count() * 8 / 10);
}

}  // namespace
}  // namespace pclust::pace
