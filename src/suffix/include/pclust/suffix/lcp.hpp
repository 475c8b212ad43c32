// LCP array over the concatenated multi-sequence text.
//
// lcp[i] = length of the longest common prefix of the suffixes at sa[i-1]
// and sa[i] (lcp[0] = 0), TRUNCATED at the first separator: a match that
// would cross a sequence boundary is not a match between residues, so the
// effective LCP is min(raw Kasai LCP, distance to the owning sequence's
// separator). Because truncation fires only when both suffixes reach their
// separators at the same offset, the truncated value is the same whichever
// of the two suffixes is measured.
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/suffix/concat_text.hpp"

namespace pclust::exec {
class Pool;
}

namespace pclust::suffix {

[[nodiscard]] std::vector<std::int32_t> build_lcp(
    const ConcatText& text, const std::vector<std::int32_t>& sa);

/// Parallel Kasai: the same scan with text positions chunked across the
/// pool (build_lcp is its one-lane, one-chunk case); each chunk restarts
/// the h counter at 0 (h is only a lower-bound optimization, so every
/// lcp[rank[i]] write is independently correct). Bit-identical to
/// build_lcp at every pool size.
[[nodiscard]] std::vector<std::int32_t> build_lcp_parallel(
    const ConcatText& text, const std::vector<std::int32_t>& sa,
    exec::Pool& pool);

}  // namespace pclust::suffix
