// Canonical derivation of RR/CCD merge provenance (prov::Edge lists).
//
// The engines' merge DECISIONS are schedule dependent (which pair's
// alignment triggers a union depends on batching, rank interleaving,
// faults, and resume points), but the final PARTITION is invariant. The
// provenance ledger therefore records the canonical decision sequence:
// the one the serial driver (engine.hpp run_serial) produces when it walks
// the pair stream from scratch. There is one loop and two ways to run it:
//
//   * decision-time capture — a from-scratch serial CCD run records live:
//     its merge recorder (components.hpp, detect_components_serial
//     on_merge) emits the edge at the moment the union–find merge
//     succeeds; zero extra alignments.
//   * replay (derive_ccd_provenance) — every other run (parallel,
//     hierarchical, faulted, resumed) reruns run_serial with the CCD
//     worker and a replay master policy: a fresh union–find that also
//     skips, WITHOUT aligning, pairs whose endpoints end in different
//     final components (an accepted overlap would have merged them — a
//     provable reject), and emits an edge per merge.
//
// Both are the same run_serial loop over the same pair stream. The extra
// filter drops only pairs the capture aligns and rejects, which changes no
// union–find, so the two forests agree at every stream position and the
// replay's merges are the capture's by construction. See DESIGN.md §16.
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
/// the provable-reject filter and is what makes the replay a pure
/// function of the final result rather than of the schedule. A pool
/// parallelizes index construction and the alignments — the edge list is
/// bit-identical without one. Adds its decisive alignment count to the
/// `prov.ccd_replay_alignments` counter and nothing to `pace.*` or
/// `ccd.uf_merges`. Throws std::invalid_argument if a component member is
/// not in @p ids.
[[nodiscard]] std::vector<prov::Edge> derive_ccd_provenance(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params,
    const std::vector<std::vector<seq::SeqId>>& components,
    exec::Pool* pool = nullptr);

}  // namespace pclust::pace
