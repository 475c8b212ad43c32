#include "pclust/pace/reference.hpp"

#include <algorithm>
#include <unordered_map>

#include "pclust/align/predicates.hpp"
#include "pclust/dsu/union_find.hpp"
#include "pclust/exec/pool.hpp"

namespace pclust::pace {

std::vector<std::uint8_t> remove_redundant_bruteforce(
    const seq::SequenceSet& set, const PaceParams& params,
    BruteForceStats* stats) {
  const auto& scheme = align::blosum62();
  std::vector<std::uint8_t> removed(set.size(), 0);
  for (seq::SeqId a = 0; a < set.size(); ++a) {
    for (seq::SeqId b = a + 1; b < set.size(); ++b) {
      if (stats) ++stats->alignments;  // the all-vs-all baseline visits all
      if (removed[a] && removed[b]) continue;
      const auto res_a = set.residues(a);
      const auto res_b = set.residues(b);
      // RR's length gate (pace/redundancy.cpp), so both align the same
      // directions: a heuristic, since Definition 1 only forces
      // |outer| >= s·c·|inner|, not |outer| >= c·|inner|.
      if (!removed[a] && !removed[b] &&
          static_cast<double>(res_a.size()) * params.containment.min_coverage <=
              static_cast<double>(res_b.size())) {
        const auto out =
            align::test_containment(res_a, res_b, scheme, params.containment);
        if (stats) stats->cells += out.alignment.cells;
        if (out.accepted) {
          removed[a] = 1;
          continue;
        }
      }
      if (!removed[a] && !removed[b] &&
          static_cast<double>(res_b.size()) * params.containment.min_coverage <=
              static_cast<double>(res_a.size())) {
        const auto out =
            align::test_containment(res_b, res_a, scheme, params.containment);
        if (stats) stats->cells += out.alignment.cells;
        if (out.accepted) removed[b] = 1;
      }
    }
  }
  return removed;
}

std::vector<std::vector<seq::SeqId>> detect_components_bruteforce(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params, BruteForceStats* stats, exec::Pool* pool) {
  const auto& scheme = align::blosum62();
  dsu::UnionFind uf(ids.size());
  // Rows of the upper triangle are evaluated on the pool's lanes; merges
  // and stats fold serially in (i, j) order.
  struct RowOutcome {
    std::vector<std::uint8_t> accepted;
    std::uint64_t cells = 0;
  };
  const auto outcomes = exec::parallel_map<RowOutcome>(
      exec::or_serial(pool), ids.size(), 1, [&](std::size_t i) {
        RowOutcome row;
        row.accepted.resize(ids.size() - i - 1);
        for (std::size_t j = i + 1; j < ids.size(); ++j) {
          const auto out = align::test_overlap(set.residues(ids[i]),
                                               set.residues(ids[j]), scheme,
                                               params.overlap);
          row.cells += out.alignment.cells;
          row.accepted[j - i - 1] = out.accepted ? 1 : 0;
        }
        return row;
      });
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    if (stats) {
      stats->alignments += ids.size() - i - 1;
      stats->cells += outcomes[i].cells;
    }
    for (std::uint32_t j = i + 1; j < ids.size(); ++j) {
      if (outcomes[i].accepted[j - i - 1]) uf.merge(i, j);
    }
  }
  auto sets = uf.extract_sets();
  std::vector<std::vector<seq::SeqId>> out;
  out.reserve(sets.size());
  for (auto& s : sets) {
    std::vector<seq::SeqId> members;
    members.reserve(s.size());
    for (auto dense : s) members.push_back(ids[dense]);
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a.front() < b.front();
  });
  return out;
}

}  // namespace pclust::pace
