#include "pclust/align/predicates.hpp"

#include <algorithm>
#include <bitset>
#include <cmath>

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

bool containment_possible(std::string_view inner, std::string_view outer,
                          const ContainmentParams& params) {
  constexpr std::size_t kQ = 3;
  constexpr std::size_t kSymbols = seq::kAlphabetSize;
  const double s = params.min_similarity;
  if (s <= 0.0) return true;
  const double bound =
      std::floor(params.min_coverage * static_cast<double>(inner.size())) *
          (1.0 - static_cast<double>(kQ) * (1.0 - s) / s) -
      static_cast<double>(kQ - 1);
  if (!(bound > 0.0)) return true;
  const auto needed = static_cast<std::size_t>(std::ceil(bound));

  const auto code = [](std::string_view seq, std::size_t i) {
    std::size_t c = 0;
    for (std::size_t k = i; k < i + kQ; ++k) {
      c = c * kSymbols + static_cast<std::uint8_t>(seq[k]);
    }
    return c;
  };
  // One bit per 3-gram of the 21-symbol alphabet (1.2 KB). set/test are
  // bounds-checked, so input that is not rank-encoded cannot write
  // outside the table.
  std::bitset<kSymbols * kSymbols * kSymbols> in_outer;
  for (std::size_t i = 0; i + kQ <= outer.size(); ++i) {
    in_outer.set(code(outer, i));
  }
  std::size_t count = 0;
  for (std::size_t i = 0; i + kQ <= inner.size(); ++i) {
    if (in_outer.test(code(inner, i)) && ++count >= needed) return true;
  }
  return false;
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
