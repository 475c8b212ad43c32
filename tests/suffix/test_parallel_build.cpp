// Parallel SA / LCP / bucket construction must be bit-identical to the
// serial builders for every pool size (including the tiny-input fallbacks).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pclust/exec/pool.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/suffix/concat_text.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::suffix {
namespace {

seq::SequenceSet make_set(std::uint64_t seed, std::uint32_t n,
                          std::uint32_t mean_length = 60) {
  util::Xoshiro256 rng(seed);
  seq::SequenceSet set;
  std::string shared;  // half of each sequence: repeats stress comparator ties
  for (std::uint32_t i = 0; i < mean_length / 2; ++i) {
    shared.push_back(static_cast<char>(rng.below(seq::kNumResidues)));
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    std::string ranks = shared;
    const auto len = mean_length / 2 + rng.below(mean_length / 2 + 1);
    for (std::uint32_t i = 0; i < len; ++i) {
      ranks.push_back(static_cast<char>(rng.below(seq::kNumResidues)));
    }
    set.add_encoded("s" + std::to_string(s), std::move(ranks));
  }
  return set;
}

TEST(ParallelSuffixArray, MatchesSerialAcrossPoolSizes) {
  for (std::uint64_t seed : {51ull, 52ull}) {
    for (std::uint32_t n : {1u, 5u, 40u, 150u}) {
      const auto set = make_set(seed, n);
      const ConcatText text(set);
      const auto serial =
          build_suffix_array(text.text(), seq::kIndexAlphabetSize);
      for (unsigned threads : {1u, 2u, 3u, 8u}) {
        exec::Pool pool(threads);
        EXPECT_EQ(build_suffix_array_parallel(text, pool), serial)
            << "seed=" << seed << " n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelLcp, MatchesSerialAcrossPoolSizes) {
  for (std::uint32_t n : {1u, 5u, 120u}) {
    const auto set = make_set(61, n);
    const ConcatText text(set);
    const auto sa = build_suffix_array(text.text(), seq::kIndexAlphabetSize);
    const auto serial = build_lcp(text, sa);
    for (unsigned threads : {1u, 2u, 8u}) {
      exec::Pool pool(threads);
      EXPECT_EQ(build_lcp_parallel(text, sa, pool), serial)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelPrefixBuckets, MatchesSerialAcrossPoolSizes) {
  const auto set = make_set(71, 150, 50);
  const ConcatText text(set);
  const auto sa = build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = build_lcp(text, sa);
  const MaximalMatchEnumerator e(text, sa, lcp);
  for (std::uint32_t prefix_len : {1u, 2u, 3u}) {
    const auto serial = e.prefix_buckets(prefix_len);
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
      exec::Pool pool(threads);
      const auto pooled = e.prefix_buckets(prefix_len, pool);
      ASSERT_EQ(pooled.size(), serial.size())
          << "prefix_len=" << prefix_len << " threads=" << threads;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(pooled[i].lb, serial[i].lb);
        EXPECT_EQ(pooled[i].rb, serial[i].rb);
        EXPECT_EQ(pooled[i].weight, serial[i].weight);
      }
    }
  }
}

TEST(ParallelSuffixArray, TinyTextFallsBackToSerial) {
  // A pool far larger than the text does not change the array.
  const auto set = make_set(81, 1, 4);
  const ConcatText text(set);
  exec::Pool pool(8);
  EXPECT_EQ(build_suffix_array_parallel(text, pool),
            build_suffix_array(text.text(), seq::kIndexAlphabetSize));
}

}  // namespace
}  // namespace pclust::suffix
