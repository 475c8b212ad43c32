// Pairwise peptide alignment: Needleman–Wunsch global [23], Smith–Waterman
// local [27], both with affine gaps (Gotoh), plus a banded local variant
// seeded on a known match diagonal (the classic maximal-match acceleration
// used by PaCE-style pipelines).
//
// All aligners report the statistics the paper's predicates need (identity
// over the aligned region, per-sequence coverage) and the number of DP cells
// computed, which feeds the mpsim virtual-time cost model.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "pclust/align/scoring.hpp"

namespace pclust::align {

struct AlignmentResult {
  std::int32_t score = 0;
  // Half-open coordinates of the aligned region in each sequence.
  std::uint32_t a_begin = 0, a_end = 0;
  std::uint32_t b_begin = 0, b_end = 0;
  std::uint32_t columns = 0;      // alignment length including gap columns
  std::uint32_t matches = 0;      // identical residue columns
  std::uint32_t positives = 0;    // columns with positive substitution score
  std::uint32_t gap_columns = 0;  // columns with a gap in either sequence
  std::uint64_t cells = 0;        // DP cells computed (for cost accounting)

  /// Fraction of identical columns over the aligned region; this is the
  /// "similarity" the paper's Definitions 1 and 2 cut on.
  [[nodiscard]] double identity() const {
    return columns ? static_cast<double>(matches) / columns : 0.0;
  }
  /// Fraction of sequence a/b covered by the aligned region.
  [[nodiscard]] double a_coverage(std::size_t a_len) const {
    return a_len ? static_cast<double>(a_end - a_begin) / a_len : 0.0;
  }
  [[nodiscard]] double b_coverage(std::size_t b_len) const {
    return b_len ? static_cast<double>(b_end - b_begin) / b_len : 0.0;
  }
};

/// Global (end-to-end) alignment of rank-encoded sequences a and b.
[[nodiscard]] AlignmentResult global_align(std::string_view a,
                                           std::string_view b,
                                           const ScoringScheme& scheme);

/// One column of an alignment path, start to end.
enum class EditOp : std::uint8_t {
  kSubstitute,  // a[i] aligned to b[j] (match or mismatch)
  kGapInB,      // a[i] aligned to a gap
  kGapInA,      // b[j] aligned to a gap
};

/// Global alignment that also returns the column-by-column path
/// (used by the center-star MSA).
[[nodiscard]] AlignmentResult global_align_path(std::string_view a,
                                                std::string_view b,
                                                const ScoringScheme& scheme,
                                                std::vector<EditOp>& path);

/// Local (best-region) alignment; empty result (score 0, zero-length
/// region) if no positive-scoring alignment exists.
[[nodiscard]] AlignmentResult local_align(std::string_view a,
                                          std::string_view b,
                                          const ScoringScheme& scheme);

/// Local alignment restricted to diagonals d with
/// |d - diagonal| <= band_halfwidth, where d = (position in a) - (position
/// in b). Seed with the diagonal of a shared maximal match. Falls back to
/// the full matrix when the band covers it anyway.
[[nodiscard]] AlignmentResult banded_local_align(std::string_view a,
                                                 std::string_view b,
                                                 const ScoringScheme& scheme,
                                                 std::int64_t diagonal,
                                                 std::uint32_t band_halfwidth);

// --- Score-only fast path -------------------------------------------------
//
// Same results as the local aligners above — score, region coordinates,
// and all column statistics are bit-identical — but computed with two
// rolling DP rows per state instead of full matrices and a traceback pass.
// Alignment statistics are propagated forward along the argmax predecessor
// of each cell using the same tie-breaking rules the traceback replays. Use
// these wherever the column-by-column path is not needed (all of the
// paper's containment/overlap predicates): DP memory drops from O(m*n) to
// O(band) and the traceback pass disappears.

/// Score-only local alignment; equals local_align(a, b, scheme).
[[nodiscard]] AlignmentResult local_align_score(std::string_view a,
                                                std::string_view b,
                                                const ScoringScheme& scheme);

/// Score-only banded local alignment; equals banded_local_align(...).
[[nodiscard]] AlignmentResult banded_local_align_score(
    std::string_view a, std::string_view b, const ScoringScheme& scheme,
    std::int64_t diagonal, std::uint32_t band_halfwidth);

}  // namespace pclust::align
