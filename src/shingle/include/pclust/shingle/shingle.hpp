// The two-pass Shingle algorithm for dense bipartite subgraph detection
// (Gibson, Kumar & Tomkins, VLDB 2005 [12]; paper §IV-D), with the
// modifications the paper describes:
//
//   Pass I  — an (s1, c1)-shingle set is generated for every left vertex;
//             the <shingle, vertex> tuples are sorted to group vertices
//             sharing a shingle.
//   Pass II — the algorithm reverses direction: an (s2, c2)-shingle set is
//             generated for every first-level shingle over the vertices
//             that produced it, yielding second-level shingles.
//   Report  — connected components of the S2-to-S1 shingle graph (via
//             union–find [29]) are enumerated; each component yields A
//             (the Vl vertices that produced its first-level shingles) and
//             B (the Vr vertices its first-level shingles are made of).
//
// Because the pipeline needs a DISJOINT set of dense subgraphs (proteins
// map many-to-one to families), candidates are post-processed greedily,
// largest first, dropping already-claimed vertices.
//
// Reporting rules per reduction (§III): for B_d a component is emitted as
// A ∪ B when |A ∩ B| / |A ∪ B| >= τ; for B_m the emitted subgraph is B.
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/bigraph/bipartite_graph.hpp"
#include "pclust/bigraph/builders.hpp"

namespace pclust::exec {
class Pool;
}

namespace pclust::shingle {

struct ShingleParams {
  /// First-level (s, c): the paper's tuned value for the ORF data is
  /// (5, 300).
  std::uint32_t s1 = 5;
  std::uint32_t c1 = 300;
  /// Second-level (s, c): grouping of first-level shingles.
  std::uint32_t s2 = 2;
  std::uint32_t c2 = 100;
  std::uint64_t seed = 0x5EEDBA5Eu;
  /// Minimum reported dense-subgraph size (paper: 5).
  std::uint32_t min_size = 5;
  /// Jaccard cutoff for the duplicate reduction's A ≈ B test
  /// ("0 << τ <= 1").
  double tau = 0.5;
};

/// A candidate dense subgraph before reduction-specific reporting.
struct DenseSubgraph {
  std::vector<std::uint32_t> left;   // A: subset of Vl, sorted
  std::vector<std::uint32_t> right;  // B: subset of Vr, sorted
};

struct DsdStats {
  std::uint64_t tuples = 0;                 // <shingle, vertex> pairs (pass I)
  std::uint64_t first_level_shingles = 0;   // distinct
  std::uint64_t second_level_shingles = 0;  // distinct
  std::uint64_t raw_components = 0;         // before disjointness/min-size
  double elapsed_seconds = 0.0;             // measured wall time (Fig. 7b)
};

/// One SURVIVING Pass II union–find merge, reported at decision time (the
/// merge-provenance sink; shingle stays free of the prov library — callers
/// convert these to evidence edges). Evidence: the two merged first-level
/// shingle nodes shared a second-level shingle, witnessed by their
/// producer-set overlap (`matches` = |∩|, `columns` = |∪| — counts, so
/// they are meaningful under both reductions even though B_m producers
/// are words). Endpoints are each node's smallest shingle ELEMENT — a
/// right vertex under both reductions, hence always mappable to a
/// sequence; a == b is legal (two shingle nodes of the same vertex).
/// From dense_subgraphs the endpoints are right-universe vertex indices;
/// report_families maps them through ComponentGraph::members to SeqIds.
/// The list is a pure function of (graph, params) — the Pass II fold is
/// serial in node order for every pool size — and its length always
/// equals first_level_shingles - raw_components.
struct ShingleMerge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t matches = 0;
  std::uint32_t columns = 0;
};

/// Run the two-pass algorithm on a bipartite graph. Returns RAW candidates
/// (possibly overlapping), largest (|A|+|B|) first; disjointness and the
/// min-size / τ rules are applied by report_families. Deterministic in
/// params.seed. Pass I shingles vertices and Pass II hashes first-level
/// shingles on the pool's lanes (a null pool is one lane); both folds
/// happen serially in index order, so the output is identical for every
/// pool size.
/// @p merges (optional) receives the surviving Pass II merges in decision
/// order (appended; endpoints in the right-vertex universe).
[[nodiscard]] std::vector<DenseSubgraph> dense_subgraphs(
    const bigraph::BipartiteGraph& graph, const ShingleParams& params,
    DsdStats* stats = nullptr, exec::Pool* pool = nullptr,
    std::vector<ShingleMerge>* merges = nullptr);

/// Apply the reduction-specific reporting rule and map vertices back to
/// sequence ids: each returned vector is one protein family (sorted SeqIds).
/// @p merges (optional) receives the surviving Pass II merges in decision
/// order with endpoints mapped to sequence ids (appended).
[[nodiscard]] std::vector<std::vector<seq::SeqId>> report_families(
    const bigraph::ComponentGraph& component, const ShingleParams& params,
    DsdStats* stats = nullptr, exec::Pool* pool = nullptr,
    std::vector<ShingleMerge>* merges = nullptr);

}  // namespace pclust::shingle
