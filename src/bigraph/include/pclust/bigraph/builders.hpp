// Bipartite-graph generation (paper §IV-C): one graph per connected
// component, under either reduction of §III.
//
//  - B_d (global similarity): the duplicate-vertex bipartite version of the
//    similarity graph G restricted to the component. Edges are found with
//    the "modified PaCE" scheme: the PaCE engine (pace::run_serial) with
//    the CCD overlap worker and a master policy that admits every pair —
//    maximal-match filtering only, no transitive-closure clustering, so
//    every distinct candidate pair is verified by alignment, because here
//    the individual edges matter.
//  - B_m (domain based): left vertices are the w-length words occurring in
//    >= 2 member sequences; an edge connects a word to every member
//    containing it.
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/bigraph/bipartite_graph.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::exec {
class Pool;
}

namespace pclust::bigraph {

enum class Reduction : std::uint8_t { kDuplicate, kMatchBased };

/// A component's bipartite graph plus the vertex-to-sequence mapping.
struct ComponentGraph {
  Reduction reduction = Reduction::kDuplicate;
  /// Right vertex r corresponds to sequence members[r]. For kDuplicate,
  /// left vertex l corresponds to members[l] as well.
  std::vector<seq::SeqId> members;
  /// For kMatchBased: left vertex l is the packed w-mer words[l].
  std::vector<std::uint64_t> words;
  BipartiteGraph graph;

  /// Work statistics of edge construction.
  std::uint64_t candidate_pairs = 0;
  std::uint64_t aligned_pairs = 0;
  std::uint64_t alignment_cells = 0;
};

struct BdParams {
  pace::PaceParams pace;  // psi, band, overlap cutoffs, scoring
};

struct BmParams {
  std::uint32_t w = 10;  // word length (paper: ~10)
};

/// Build the global-similarity reduction B_d for one component: one
/// run_serial run (phase label "bgg", so its suffix index is published as
/// mem.bgg.suffix_index.* and charged to the memory governor) whose pairs
/// are scored through the SIMD batch engine on @p pool's lanes (a null
/// pool is one lane). The graph and its work statistics are bit-identical
/// at every pool size.
ComponentGraph build_bd(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BdParams& params = {},
                        exec::Pool* pool = nullptr);

/// Build the domain-based reduction B_m for one component.
ComponentGraph build_bm(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BmParams& params = {});

}  // namespace pclust::bigraph
