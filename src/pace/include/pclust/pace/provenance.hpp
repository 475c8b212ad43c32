// Canonical derivation of RR/CCD merge provenance (prov::Edge lists).
//
// The engines' merge DECISIONS are schedule dependent (which pair's
// alignment triggers a union depends on batching, rank interleaving,
// faults, and resume points), but the final PARTITION is invariant. The
// provenance ledger therefore records the canonical decision sequence:
// the one the serial driver produces when it walks the canonical pair
// stream (engine.hpp canonical_pairs) from scratch. Two capture paths
// produce that sequence:
//
//   * decision-time capture — the serial CCD driver's merge recorder
//     (components.hpp, detect_components_serial on_merge) emits the edge
//     at the moment uf_.merge succeeds; zero extra alignments. Valid only
//     for a from-scratch serial run.
//   * canonical replay (derive_ccd_provenance) — for parallel,
//     hierarchical, faulted, or resumed runs: walk the canonical pair
//     stream against a fresh union-find, skip duplicates and
//     already-connected pairs, skip (WITHOUT aligning) pairs whose
//     endpoints end in different final components (an accepted overlap
//     would have merged them — provably rejected), realign the rest
//     exactly like the CCD worker, and emit an edge per accepting merge.
//
// Replay equals capture by induction on the stream position: both walk
// the same pairs in the same order, and at every position the replay
// union-find equals the serial master's apply-time forest (both align in
// batches and re-check each pair in stream order before applying it, so a
// pair connected earlier in its own batch is dropped by both). See
// DESIGN.md §16.
//
// RR provenance is derived post hoc: the removal chain guard ("a sequence
// is removed only if its container is itself still present") makes
// removed -> container pointers a forest, and each removal is exactly one
// conceptual merge. The evidence alignment is recomputed with the FULL
// dynamic program (no band) so the recorded stats are canonical even when
// the phase cut corners with a banded filter.
//
// Both derivers score their alignments through the SIMD batch engine
// (align/batch.hpp), split across the optional pool; results are
// bit-identical at every pool size.
#pragma once

#include <vector>

#include "pclust/pace/components.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/prov/edge.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::pace {

/// The evidence edge for an accepting CCD verdict (shared by the serial
/// merge recorder and the canonical replay, so both emit identical edges).
[[nodiscard]] prov::Edge ccd_edge_from_verdict(const Verdict& v);

/// Canonical RR evidence: one containment edge per removed sequence, in
/// ascending removed-id order, each scored by the full-DP containment
/// alignment of (removed, container). Pure function of (set, rr, params).
[[nodiscard]] std::vector<prov::Edge> derive_rr_provenance(
    const seq::SequenceSet& set, const RedundancyResult& rr,
    const PaceParams& params, exec::Pool* pool = nullptr);

/// Canonical CCD evidence by replay (see file comment): exactly one edge
/// per surviving union-find merge, in canonical stream order. @p
/// components is the FINAL partition over @p ids (any order); it gates
/// the provable-reject fast path and is what makes the replay a pure
/// function of the final result rather than of the schedule. A pool
/// parallelizes index construction and the alignments — the edge list is
/// bit-identical without one.
[[nodiscard]] std::vector<prov::Edge> derive_ccd_provenance(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params,
    const std::vector<std::vector<seq::SeqId>>& components,
    exec::Pool* pool = nullptr);

}  // namespace pclust::pace
