// Suffix array construction by prefix doubling (Larsson & Sadakane 2007):
// counting-sort passes over each suffix's first symbols, then doubling
// rounds that re-sort only the still-tied groups.
//
// pclust's generalized suffix tree is never materialized: maximal-match
// enumeration (maximal_match.hpp) walks the LCP intervals of the suffix
// array plus the separator-truncated LCP array — the LCP-interval tree of a
// suffix array is exactly the suffix tree topology (Abouelhoda, Kurtz &
// Ohlebusch 2004), and working on it this way sidesteps the classic
// single-separator ambiguity of online constructions over concatenated
// multi-sequence text.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace pclust::exec {
class Pool;
}

namespace pclust::suffix {

class ConcatText;

/// Suffix array of @p text (values in [0, alphabet)). Suffixes compare as
/// if an implicit sentinel smaller than every symbol ended the text; the
/// array has exactly text.size() entries. Throws std::invalid_argument for a
/// symbol out of range and std::length_error for a text too long for int32
/// positions.
[[nodiscard]] std::vector<std::int32_t> build_suffix_array(
    std::string_view text, int alphabet);

/// Same as build_suffix_array(text.text(), seq::kIndexAlphabetSize): one
/// lane sorts every index at every pool size (DESIGN.md §8). The pool is
/// unused.
[[nodiscard]] std::vector<std::int32_t> build_suffix_array_parallel(
    const ConcatText& text, exec::Pool& pool);

/// Inverse permutation: rank_of[sa[i]] = i.
[[nodiscard]] std::vector<std::int32_t> invert_suffix_array(
    const std::vector<std::int32_t>& sa);

}  // namespace pclust::suffix
