#include "pclust/align/predicates.hpp"

#include <algorithm>

namespace pclust::align {

PredicateOutcome containment_outcome(const AlignmentResult& r,
                                     std::size_t inner_len,
                                     const ContainmentParams& params) {
  PredicateOutcome out;
  out.alignment = r;
  out.accepted = r.columns > 0 &&
                 r.identity() >= params.min_similarity &&
                 r.a_coverage(inner_len) >= params.min_coverage;
  return out;
}

PredicateOutcome overlap_outcome(const AlignmentResult& r, std::size_t a_len,
                                 std::size_t b_len,
                                 const OverlapParams& params) {
  PredicateOutcome out;
  out.alignment = r;
  const double long_cov =
      (a_len >= b_len) ? r.a_coverage(a_len) : r.b_coverage(b_len);
  out.accepted = r.columns > 0 &&
                 r.identity() >= params.min_similarity &&
                 long_cov >= params.min_long_coverage;
  return out;
}

PredicateOutcome test_containment(std::string_view inner,
                                  std::string_view outer,
                                  const ScoringScheme& scheme,
                                  const ContainmentParams& params) {
  // Predicates only cut on scores and region statistics, never on the
  // column path, so they always take the score-only fast path.
  return containment_outcome(local_align_score(inner, outer, scheme),
                             inner.size(), params);
}

PredicateOutcome test_overlap(std::string_view a, std::string_view b,
                              const ScoringScheme& scheme,
                              const OverlapParams& params) {
  return overlap_outcome(local_align_score(a, b, scheme), a.size(), b.size(),
                      params);
}

PredicateOutcome test_overlap_banded(std::string_view a, std::string_view b,
                                     const ScoringScheme& scheme,
                                     std::int64_t diagonal,
                                     std::uint32_t band_halfwidth,
                                     const OverlapParams& params) {
  return overlap_outcome(
      banded_local_align_score(a, b, scheme, diagonal, band_halfwidth),
      a.size(), b.size(), params);
}

}  // namespace pclust::align
