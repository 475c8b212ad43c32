// Inter-sequence batched score-only alignment: N independent candidate
// pairs, one pair per 16-bit SIMD lane (8 lanes under SSE2, 16 under AVX2),
// all advancing through the same banded Smith-Waterman recurrence in
// lockstep. Results are bit-identical to the scalar score-only engine —
// same scores, same region statistics, same tie-breaks — so callers can
// batch opportunistically without changing any downstream decision.
//
// The ISA is chosen at runtime (pclust/align/simd.hpp); under Isa::kScalar,
// or for pairs the 16-bit lanes cannot represent (length > 2047, or scores
// that would saturate), the engine transparently falls back to the scalar
// scorer for exactly those pairs. Every batch records `align.batches` /
// `align.batch_fill` metrics so run reports distinguish SIMD from scalar
// work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "pclust/align/pairwise.hpp"
#include "pclust/align/scoring.hpp"

namespace pclust::exec {
class Pool;
}

namespace pclust::align {

/// One independent score-only local alignment job.
struct PairJob {
  std::string_view a;
  std::string_view b;
  /// Band seed diagonal (position-in-a minus position-in-b); ignored when
  /// the job is unbanded.
  std::int64_t diagonal = 0;
  /// Band half-width; negative means unbanded (full local alignment,
  /// equivalent to local_align_score).
  std::int64_t band = -1;
};

/// Scores @p count independent jobs, writing out[k] for jobs[k]. Each
/// result is bit-identical to banded_local_align_score(a, b, scheme,
/// diagonal, band) for banded jobs, or local_align_score(a, b, scheme) for
/// unbanded ones — whichever ISA is dispatched.
void align_score_batch(const PairJob* jobs, std::size_t count,
                       const ScoringScheme& scheme, AlignmentResult* out);

/// The same, split across @p pool: the library's one alignment splitter.
/// Several lanes score slices of kPoolGrain jobs (fewer under memory
/// pressure) through one call above each; a null or one-lane pool scores
/// the whole list in one call. Results land at their job's index, so they
/// are bit-identical for every pool size.
void align_score_batch(const PairJob* jobs, std::size_t count,
                       const ScoringScheme& scheme, AlignmentResult* out,
                       exec::Pool* pool);

/// Jobs per pooled slice, the only alignment grain: enough for the length
/// sort to form uniform lane chunks, few enough to load-balance across
/// pool lanes.
inline constexpr std::size_t kPoolGrain = 128;

}  // namespace pclust::align
