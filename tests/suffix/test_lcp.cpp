#include "pclust/suffix/lcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "pclust/suffix/suffix_array.hpp"
#include "pclust/synth/generator.hpp"

namespace pclust::suffix {
namespace {

/// Brute-force truncated LCP of two suffixes.
std::int32_t ref_lcp(const ConcatText& t, std::size_t a, std::size_t b) {
  std::int32_t k = 0;
  while (a + static_cast<std::size_t>(k) < t.size() &&
         b + static_cast<std::size_t>(k) < t.size() &&
         t.at(a + static_cast<std::size_t>(k)) ==
             t.at(b + static_cast<std::size_t>(k)) &&
         !t.is_separator(a + static_cast<std::size_t>(k))) {
    ++k;
  }
  return k;
}

TEST(Lcp, MatchesBruteForceOnRandomData) {
  synth::DatasetSpec spec;
  spec.num_sequences = 60;
  spec.num_families = 4;
  spec.mean_length = 50;
  spec.noise_fraction = 0.2;
  spec.redundant_fraction = 0.1;
  const auto d = synth::generate(spec);
  const ConcatText text(d.sequences);
  const auto sa = build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = build_lcp(text, sa);
  ASSERT_EQ(lcp.size(), sa.size());
  EXPECT_EQ(lcp[0], 0);
  for (std::size_t i = 1; i < sa.size(); ++i) {
    ASSERT_EQ(lcp[i],
              ref_lcp(text, static_cast<std::size_t>(sa[i - 1]),
                      static_cast<std::size_t>(sa[i])))
        << "at SA index " << i;
  }
}

TEST(Lcp, NeverCrossesSeparators) {
  seq::SequenceSet set;  // two identical sequences
  set.add("s0", "ACDE");
  set.add("s1", "ACDE");
  const ConcatText text(set);
  const auto sa = build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = build_lcp(text, sa);
  // Max LCP is 4 (the sequence length), never 5+ across the separator.
  for (auto v : lcp) EXPECT_LE(v, 4);
  EXPECT_NE(std::count(lcp.begin(), lcp.end(), 4), 0);
}

}  // namespace
}  // namespace pclust::suffix
