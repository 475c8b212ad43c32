// Brute-force all-versus-all reference implementations.
//
// These are the Ω(n²) baselines the paper's filtering is measured against
// (the "99 % work reduction" claim for the 40 K input). They also serve as
// ground truth in the property tests: the PaCE heuristics must produce the
// same connected components whenever ψ admits every true overlap.
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/pace/params.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::exec {
class Pool;
}

namespace pclust::pace {

struct BruteForceStats {
  std::uint64_t alignments = 0;  // n(n-1)/2
  std::uint64_t cells = 0;       // total DP cells evaluated
};

/// All-pairs Definition-1 sweep: removed[i] set when sequence i is
/// contained in a surviving sequence (pairs visited in ascending id order).
std::vector<std::uint8_t> remove_redundant_bruteforce(
    const seq::SequenceSet& set, const PaceParams& params = {},
    BruteForceStats* stats = nullptr);

/// All-pairs Definition-2 overlap graph, connected components via
/// union–find. Components descending by size, members ascending. The pair
/// tests are independent, so their rows are evaluated on the pool's lanes
/// (a null pool is one lane) and merged in pair order — output and stats
/// are identical at every pool size. (The Definition-1 sweep has a
/// sequential dependence — the removal state feeds the skip conditions —
/// and stays serial.)
std::vector<std::vector<seq::SeqId>> detect_components_bruteforce(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params = {}, BruteForceStats* stats = nullptr,
    exec::Pool* pool = nullptr);

}  // namespace pclust::pace
