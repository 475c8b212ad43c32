// The two alignment predicates the paper's pipeline cuts on.
//
// Definition 1 (containment, used by redundancy removal): sequence s_i is
// "contained" in s_j if an optimal alignment has (i) >= 95 % similarity over
// the overlapping (aligned) region and (ii) >= 95 % of s_i included in the
// overlapping region.
//
// Definition 2 (overlap, used by connected-component detection): two
// sequences "overlap" if they share a local alignment with >= 30 %
// similarity that includes >= 80 % of the LONGER sequence.
//
// All cutoffs are user-tunable software parameters (paper, footnote 3); the
// defaults below are the paper's defaults.
#pragma once

#include <cstdint>
#include <string_view>

#include "pclust/align/pairwise.hpp"

namespace pclust::align {

struct ContainmentParams {
  double min_similarity = 0.95;  // identity over the aligned region
  double min_coverage = 0.95;    // fraction of the contained sequence aligned
};

struct OverlapParams {
  double min_similarity = 0.30;     // identity over the aligned region
  double min_long_coverage = 0.80;  // fraction of the longer sequence aligned
};

struct PredicateOutcome {
  bool accepted = false;
  AlignmentResult alignment;  // the alignment the decision was based on
};

/// Decision layer of Definition 1 over a precomputed score-only local
/// alignment of (inner, outer) — shared by test_containment and callers
/// that score pairs through the batched SIMD engine.
[[nodiscard]] PredicateOutcome containment_outcome(
    const AlignmentResult& r, std::size_t inner_len,
    const ContainmentParams& params = {});

/// Can any alignment of rank-encoded @p inner against @p outer meet
/// Definition 1? An O(m + n) necessary condition, the q-gram lemma
/// (Jokinen & Ukkonen 1991) with q = 3. An accepted alignment spans
/// L >= c·m inner residues (m = |inner|, c = min_coverage) with at most
/// L(1 - s)/s error columns (s = min_similarity), and each error column
/// breaks at most q of the span's inner q-grams, so at least
/// floor(c·m)(1 - q(1 - s)/s) - q + 1 inner q-grams occur unchanged in
/// @p outer. Returns false only when fewer of the inner's 3-gram
/// positions than that bound have their 3-gram anywhere in @p outer —
/// containment_outcome then rejects every alignment of the pair, the
/// optimal one included. True whenever s <= 0 or the bound is <= 0.
[[nodiscard]] bool containment_possible(std::string_view inner,
                                        std::string_view outer,
                                        const ContainmentParams& params = {});

/// Decision layer of Definition 2 over a precomputed score-only local
/// alignment of (a, b).
[[nodiscard]] PredicateOutcome overlap_outcome(const AlignmentResult& r,
                                               std::size_t a_len,
                                               std::size_t b_len,
                                               const OverlapParams& params = {});

/// Is @p inner contained in @p outer per Definition 1?
[[nodiscard]] PredicateOutcome test_containment(
    std::string_view inner, std::string_view outer,
    const ScoringScheme& scheme, const ContainmentParams& params = {});

/// Do @p a and @p b overlap per Definition 2?
[[nodiscard]] PredicateOutcome test_overlap(std::string_view a,
                                            std::string_view b,
                                            const ScoringScheme& scheme,
                                            const OverlapParams& params = {});

/// Banded variant seeded on the diagonal of a shared maximal match
/// (diagonal = position-in-first - position-in-second).
[[nodiscard]] PredicateOutcome test_overlap_banded(
    std::string_view a, std::string_view b, const ScoringScheme& scheme,
    std::int64_t diagonal, std::uint32_t band_halfwidth,
    const OverlapParams& params = {});

}  // namespace pclust::align
