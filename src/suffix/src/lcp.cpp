#include "pclust/suffix/lcp.hpp"

#include "pclust/exec/pool.hpp"
#include "pclust/suffix/suffix_array.hpp"

namespace pclust::suffix {

/// Kasai et al. 2001 over text positions chunked across @p pool. The
/// comparison itself stops at separators so no post-truncation pass is
/// needed: separators are compared as ordinary symbols, but a separator
/// matching a separator terminates the scan. Each chunk starts with h = 0.
/// h only ever LOWERS the comparison start (a proven lower bound carried
/// from position i-1), so losing it at a chunk boundary costs a longer
/// scan, never a wrong value; each lcp[rank[i]] slot is written by exactly
/// one chunk.
std::vector<std::int32_t> build_lcp_parallel(const ConcatText& text,
                                             const std::vector<std::int32_t>& sa,
                                             exec::Pool& pool) {
  const std::size_t n = text.size();
  std::vector<std::int32_t> lcp(n, 0);
  if (n == 0) return lcp;

  const auto rank = invert_suffix_array(sa);
  const auto scan = [&](std::size_t lo, std::size_t hi) {
    std::int32_t h = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int32_t r = rank[i];
      if (r == 0) {
        h = 0;
        continue;
      }
      const auto j =
          static_cast<std::size_t>(sa[static_cast<std::size_t>(r - 1)]);
      auto k = static_cast<std::size_t>(h > 0 ? h - 1 : 0);
      while (i + k < n && j + k < n && text.at(i + k) == text.at(j + k) &&
             !text.is_separator(i + k)) {
        ++k;
      }
      lcp[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(k);
      h = static_cast<std::int32_t>(k);
    }
  };
  // Four chunks per lane balance a pooled scan; one lane scans the text as
  // one chunk, which is plain Kasai.
  const std::size_t chunks =
      pool.size() > 1 ? 4 * static_cast<std::size_t>(pool.size()) : 1;
  pool.for_range(n, (n + chunks - 1) / chunks, scan);
  return lcp;
}

std::vector<std::int32_t> build_lcp(const ConcatText& text,
                                    const std::vector<std::int32_t>& sa) {
  return build_lcp_parallel(text, sa, exec::or_serial(nullptr));
}

}  // namespace pclust::suffix
