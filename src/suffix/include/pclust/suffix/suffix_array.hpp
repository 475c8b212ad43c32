// Suffix array construction via SA-IS (Nong, Zhang & Chan 2009): linear
// time, linear extra space, induced sorting.
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

/// Suffix array of @p text (values in [0, alphabet)). An implicit sentinel
/// smaller than every symbol is appended internally; the returned array has
/// exactly text.size() entries (the sentinel's suffix is dropped).
[[nodiscard]] std::vector<std::int32_t> build_suffix_array(
    std::string_view text, int alphabet);

/// Same as build_suffix_array(text.text(), seq::kIndexAlphabetSize): SA-IS
/// builds every index at every pool size (DESIGN.md §8). The pool is
/// unused.
[[nodiscard]] std::vector<std::int32_t> build_suffix_array_parallel(
    const ConcatText& text, exec::Pool& pool);

/// Inverse permutation: rank_of[sa[i]] = i.
[[nodiscard]] std::vector<std::int32_t> invert_suffix_array(
    const std::vector<std::int32_t>& sa);

}  // namespace pclust::suffix
