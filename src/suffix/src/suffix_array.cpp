#include "pclust/suffix/suffix_array.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <vector>

#include "pclust/seq/alphabet.hpp"
#include "pclust/suffix/concat_text.hpp"

namespace pclust::suffix {

namespace {

/// Core SA-IS over s[0..n), values in [0, K), with s[n-1] == 0 the unique
/// smallest sentinel. Writes the full suffix array (including the sentinel
/// suffix at SA[0]) into sa[0..n).
template <typename Sym>
void sais(const Sym* s, std::int32_t* sa, std::int32_t n, std::int32_t K) {
  assert(n > 0 && s[n - 1] == 0);
  if (n == 1) {
    sa[0] = 0;
    return;
  }

  std::vector<bool> is_s(static_cast<std::size_t>(n));
  is_s[static_cast<std::size_t>(n - 1)] = true;
  for (std::int32_t i = n - 2; i >= 0; --i) {
    is_s[static_cast<std::size_t>(i)] =
        s[i] < s[i + 1] ||
        (s[i] == s[i + 1] && is_s[static_cast<std::size_t>(i + 1)]);
  }
  const auto is_lms = [&](std::int32_t i) {
    return i > 0 && is_s[static_cast<std::size_t>(i)] &&
           !is_s[static_cast<std::size_t>(i - 1)];
  };

  std::vector<std::int32_t> bucket(static_cast<std::size_t>(K));
  const auto reset_buckets = [&](bool end) {
    std::fill(bucket.begin(), bucket.end(), 0);
    for (std::int32_t i = 0; i < n; ++i) {
      ++bucket[static_cast<std::size_t>(s[i])];
    }
    std::int32_t sum = 0;
    for (std::int32_t c = 0; c < K; ++c) {
      sum += bucket[static_cast<std::size_t>(c)];
      bucket[static_cast<std::size_t>(c)] =
          end ? sum : sum - bucket[static_cast<std::size_t>(c)];
    }
  };

  const auto induce_l = [&] {
    reset_buckets(/*end=*/false);
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t j = sa[i] - 1;
      if (sa[i] > 0 && !is_s[static_cast<std::size_t>(j)]) {
        sa[bucket[static_cast<std::size_t>(s[j])]++] = j;
      }
    }
  };
  const auto induce_s = [&] {
    reset_buckets(/*end=*/true);
    for (std::int32_t i = n - 1; i >= 0; --i) {
      const std::int32_t j = sa[i] - 1;
      if (sa[i] > 0 && is_s[static_cast<std::size_t>(j)]) {
        sa[--bucket[static_cast<std::size_t>(s[j])]] = j;
      }
    }
  };

  // Stage 1: place LMS suffixes at bucket ends, induce-sort everything.
  std::fill(sa, sa + n, -1);
  reset_buckets(/*end=*/true);
  for (std::int32_t i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--bucket[static_cast<std::size_t>(s[i])]] = i;
  }
  induce_l();
  induce_s();

  // Compact the (now relatively sorted) LMS suffixes to the front.
  std::int32_t n1 = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    if (is_lms(sa[i])) sa[n1++] = sa[i];
  }
  std::fill(sa + n1, sa + n, -1);

  // Name LMS substrings; equal substrings get equal names.
  std::int32_t names = 0;
  std::int32_t prev = -1;
  for (std::int32_t i = 0; i < n1; ++i) {
    const std::int32_t pos = sa[i];
    bool differ = prev < 0;
    if (!differ) {
      for (std::int32_t d = 0;; ++d) {
        if (pos + d >= n || prev + d >= n) {
          differ = true;
          break;
        }
        if (s[pos + d] != s[prev + d] ||
            is_s[static_cast<std::size_t>(pos + d)] !=
                is_s[static_cast<std::size_t>(prev + d)]) {
          differ = true;
          break;
        }
        if (d > 0 && (is_lms(pos + d) || is_lms(prev + d))) {
          differ = !(is_lms(pos + d) && is_lms(prev + d));
          break;
        }
      }
    }
    if (differ) {
      ++names;
      prev = pos;
    }
    sa[n1 + pos / 2] = names - 1;
  }
  for (std::int32_t i = n - 1, j = n - 1; i >= n1; --i) {
    if (sa[i] >= 0) sa[j--] = sa[i];
  }

  // Stage 2: sort the reduced problem.
  std::int32_t* sa1 = sa;
  std::int32_t* s1 = sa + n - n1;
  if (names < n1) {
    sais<std::int32_t>(s1, sa1, n1, names);
  } else {
    for (std::int32_t i = 0; i < n1; ++i) sa1[s1[i]] = i;
  }

  // Stage 3: map reduced ranks back to LMS text positions, induce final SA.
  for (std::int32_t i = 1, j = 0; i < n; ++i) {
    if (is_lms(i)) s1[j++] = i;  // s1 now lists LMS positions in text order
  }
  for (std::int32_t i = 0; i < n1; ++i) sa1[i] = s1[sa1[i]];
  std::fill(sa + n1, sa + n, -1);
  reset_buckets(/*end=*/true);
  for (std::int32_t i = n1 - 1; i >= 0; --i) {
    const std::int32_t p = sa[i];
    sa[i] = -1;
    sa[--bucket[static_cast<std::size_t>(s[p])]] = p;
  }
  induce_l();
  induce_s();
}

}  // namespace

std::vector<std::int32_t> build_suffix_array(std::string_view text,
                                             int alphabet) {
  const auto n = static_cast<std::int32_t>(text.size());
  if (text.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max() - 2)) {
    throw std::length_error("build_suffix_array: text too large for int32");
  }
  if (n == 0) return {};

  // Shift symbols by +1 and append the 0 sentinel.
  std::vector<std::int32_t> shifted(static_cast<std::size_t>(n) + 1);
  for (std::int32_t i = 0; i < n; ++i) {
    const auto sym = static_cast<std::uint8_t>(text[static_cast<std::size_t>(i)]);
    if (sym >= alphabet) {
      throw std::invalid_argument("build_suffix_array: symbol out of range");
    }
    shifted[static_cast<std::size_t>(i)] = sym + 1;
  }
  shifted[static_cast<std::size_t>(n)] = 0;

  std::vector<std::int32_t> sa(static_cast<std::size_t>(n) + 1);
  sais<std::int32_t>(shifted.data(), sa.data(), n + 1, alphabet + 1);
  // Drop the sentinel suffix (always SA[0]).
  sa.erase(sa.begin());
  return sa;
}

std::vector<std::int32_t> build_suffix_array_parallel(const ConcatText& text,
                                                      exec::Pool& /*pool*/) {
  return build_suffix_array(text.text(), seq::kIndexAlphabetSize);
}

std::vector<std::int32_t> invert_suffix_array(
    const std::vector<std::int32_t>& sa) {
  std::vector<std::int32_t> rank(sa.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    rank[static_cast<std::size_t>(sa[i])] = static_cast<std::int32_t>(i);
  }
  return rank;
}

}  // namespace pclust::suffix
