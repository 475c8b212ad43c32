#include "pclust/bigraph/builders.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"
#include "pclust/suffix/kmer_index.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/memsize.hpp"

namespace pclust::bigraph {

ComponentGraph build_bd(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BdParams& params, exec::Pool* pool) {
  ComponentGraph out;
  out.reduction = Reduction::kDuplicate;
  out.members = members;

  std::unordered_map<seq::SeqId, std::uint32_t> dense;
  dense.reserve(members.size());
  for (std::uint32_t i = 0; i < members.size(); ++i) dense[members[i]] = i;

  const pace::PaceParams& pp = params.pace;
  const suffix::ConcatText text(set, members);
  const auto sa =
      suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = suffix::build_lcp(text, sa);
  suffix::MaximalMatchParams mp;
  mp.min_length = pp.psi;
  mp.max_node_occurrences = pp.max_node_occurrences;
  const suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);

  // One alignment per candidate pair: keep the longest maximal match per
  // pair as the banded-alignment seed (pairs arrive longest-first). The
  // pairs are scored as SIMD batches of kFlushPairs, on the pool when there
  // is one, and their edges appended in enumeration order.
  constexpr std::size_t kFlushPairs = 16 * 1024;
  const std::int64_t band =
      pp.band > 0 ? static_cast<std::int64_t>(pp.band) : -1;
  std::unordered_set<std::uint64_t> seen;
  std::vector<align::PairJob> jobs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ends;  // dense (i, j)
  std::vector<align::AlignmentResult> results;
  std::vector<Edge> edges;
  const auto flush = [&] {
    results.resize(jobs.size());
    align::align_score_batch(jobs.data(), jobs.size(), align::blosum62(),
                             results.data(), pool);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const align::PredicateOutcome res = align::overlap_outcome(
          results[k], jobs[k].a.size(), jobs[k].b.size(), pp.overlap);
      out.alignment_cells += res.alignment.cells;
      if (res.accepted) {
        const auto [i, j] = ends[k];
        edges.push_back(Edge{i, j});
        edges.push_back(Edge{j, i});
      }
    }
    jobs.clear();
    ends.clear();
  };
  if (!sa.empty()) {
    enumerator.enumerate(
        0, static_cast<std::int32_t>(sa.size()) - 1,
        [&](const suffix::MaximalMatch& m) {
          ++out.candidate_pairs;
          const std::uint64_t key =
              (static_cast<std::uint64_t>(m.a) << 32) | m.b;
          if (!seen.insert(key).second) return true;
          ++out.aligned_pairs;
          jobs.push_back(
              {set.residues(m.a), set.residues(m.b), m.diagonal(), band});
          ends.emplace_back(dense.at(m.a), dense.at(m.b));
          if (jobs.size() >= kFlushPairs) flush();
          return true;
        });
  }
  flush();
  out.graph = BipartiteGraph(static_cast<std::uint32_t>(members.size()),
                             static_cast<std::uint32_t>(members.size()),
                             std::move(edges));
  util::record_memory(out.graph.memory_usage(), "bgg");
  return out;
}

ComponentGraph build_bm(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BmParams& params) {
  ComponentGraph out;
  out.reduction = Reduction::kMatchBased;
  out.members = members;

  std::unordered_map<seq::SeqId, std::uint32_t> dense;
  dense.reserve(members.size());
  for (std::uint32_t i = 0; i < members.size(); ++i) dense[members[i]] = i;

  suffix::KmerIndex::Params kp;
  kp.w = params.w;
  kp.max_sequences_per_word = params.max_sequences_per_word;
  const suffix::KmerIndex index(set, members, kp);
  util::record_memory(index.memory_usage(), "bgg");

  std::vector<Edge> edges;
  out.words.reserve(index.word_count());
  for (std::size_t w = 0; w < index.word_count(); ++w) {
    const auto l = static_cast<std::uint32_t>(out.words.size());
    out.words.push_back(index.packed_word(w));
    for (seq::SeqId id : index.sequences_of(w)) {
      edges.push_back(Edge{l, dense.at(id)});
      ++out.candidate_pairs;
    }
  }
  out.graph = BipartiteGraph(static_cast<std::uint32_t>(out.words.size()),
                             static_cast<std::uint32_t>(members.size()),
                             std::move(edges));
  util::record_memory(out.graph.memory_usage(), "bgg");
  return out;
}

}  // namespace pclust::bigraph
