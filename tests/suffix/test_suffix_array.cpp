#include "pclust/suffix/suffix_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>

#include "pclust/seq/alphabet.hpp"
#include "pclust/seq/sequence_set.hpp"
#include "pclust/suffix/concat_text.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/synth/presets.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::suffix {
namespace {

/// O(n^2 log n) reference: sort suffix indices by suffix comparison.
std::vector<std::int32_t> brute_force_sa(std::string_view text) {
  std::vector<std::int32_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](std::int32_t a, std::int32_t b) {
    return text.substr(static_cast<std::size_t>(a)) <
           text.substr(static_cast<std::size_t>(b));
  });
  return sa;
}

std::string random_text(std::uint64_t seed, std::size_t len, int alphabet) {
  util::Xoshiro256 rng(seed);
  std::string s(len, '\0');
  for (auto& c : s) {
    c = static_cast<char>(rng.below(static_cast<std::uint64_t>(alphabet)));
  }
  return s;
}

/// Linear-time suffix array check (Burkhardt & Kärkkäinen 2003): @p sa is
/// the suffix array of @p text iff it is a permutation and each adjacent
/// pair of suffixes is strictly increasing, compared by the first symbol
/// and then by the rank of the suffix one symbol on (the empty suffix
/// ranks lowest). It needs no reference builder and no long comparisons.
::testing::AssertionResult is_suffix_array(
    std::string_view text, const std::vector<std::int32_t>& sa) {
  const std::size_t n = text.size();
  if (sa.size() != n) return ::testing::AssertionFailure() << "wrong size";
  std::vector<std::int64_t> rank(n + 1, -1);  // rank[n]: the empty suffix
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::size_t>(sa[i]);
    if (sa[i] < 0 || p >= n || rank[p] >= 0) {
      return ::testing::AssertionFailure() << "not a permutation at " << i;
    }
    rank[p] = static_cast<std::int64_t>(i);
  }
  for (std::size_t i = 1; i < n; ++i) {
    const auto a = static_cast<std::size_t>(sa[i - 1]);
    const auto b = static_cast<std::size_t>(sa[i]);
    const auto first_a = static_cast<unsigned char>(text[a]);
    const auto first_b = static_cast<unsigned char>(text[b]);
    if (first_a > first_b ||
        (first_a == first_b && rank[a + 1] >= rank[b + 1])) {
      return ::testing::AssertionFailure() << "suffixes out of order at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The index text of @p copies copies of one encoded sequence.
ConcatText repeated_text(const std::string& ranks, std::uint32_t copies) {
  seq::SequenceSet set;
  for (std::uint32_t c = 0; c < copies; ++c) {
    set.add_encoded("copy" + std::to_string(c), ranks);
  }
  return ConcatText(set);
}

/// The sorted suffix array of @p text, as the index builds it.
::testing::AssertionResult sorts(const ConcatText& text) {
  return is_suffix_array(
      text.text(), build_suffix_array(text.text(), seq::kIndexAlphabetSize));
}

TEST(SuffixArray, EmptyText) {
  EXPECT_TRUE(build_suffix_array("", 4).empty());
}

TEST(SuffixArray, SingleCharacter) {
  const std::string t(1, '\2');
  const auto sa = build_suffix_array(t, 4);
  EXPECT_EQ(sa, (std::vector<std::int32_t>{0}));
}

TEST(SuffixArray, KnownSmallCase) {
  // "banana" over mapped alphabet {a=0, b=1, n=2}.
  std::string t = "banana";
  for (auto& c : t) c = (c == 'a') ? 0 : (c == 'b' ? 1 : 2);
  const auto sa = build_suffix_array(t, 3);
  EXPECT_EQ(sa, (std::vector<std::int32_t>{5, 3, 1, 0, 4, 2}));
}

TEST(SuffixArray, AllEqualSymbols) {
  const std::string t(50, '\3');
  const auto sa = build_suffix_array(t, 8);
  // Suffixes of a^n sort longest-last... shortest suffix is smallest.
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sa[i], static_cast<std::int32_t>(49 - i));
  }
}

struct SaCase {
  std::uint64_t seed;
  std::size_t length;
  int alphabet;
};

class SuffixArrayRandom : public ::testing::TestWithParam<SaCase> {};

TEST_P(SuffixArrayRandom, MatchesBruteForce) {
  const auto [seed, length, alphabet] = GetParam();
  const std::string t = random_text(seed, length, alphabet);
  EXPECT_EQ(build_suffix_array(t, alphabet), brute_force_sa(t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuffixArrayRandom,
    ::testing::Values(SaCase{1, 10, 2}, SaCase{2, 100, 2}, SaCase{3, 100, 4},
                      SaCase{4, 500, 3}, SaCase{5, 500, 23},
                      SaCase{6, 1000, 5}, SaCase{7, 2000, 23},
                      SaCase{8, 777, 2}, SaCase{9, 64, 23},
                      SaCase{10, 1500, 4}));

TEST(SuffixArray, IsAPermutation) {
  const std::string t = random_text(42, 3000, 23);
  const auto sa = build_suffix_array(t, 23);
  std::vector<bool> seen(t.size(), false);
  for (auto v : sa) {
    ASSERT_GE(v, 0);
    ASSERT_LT(static_cast<std::size_t>(v), t.size());
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(SuffixArray, SortedProperty) {
  const std::string t = random_text(43, 2000, 3);
  const auto sa = build_suffix_array(t, 3);
  const std::string_view sv(t);
  for (std::size_t i = 1; i < sa.size(); ++i) {
    ASSERT_LT(sv.substr(static_cast<std::size_t>(sa[i - 1])),
              sv.substr(static_cast<std::size_t>(sa[i])))
        << "disorder at " << i;
  }
}

TEST(SuffixArray, SymbolOutOfRangeThrows) {
  const std::string t(3, '\7');
  EXPECT_THROW(build_suffix_array(t, 4), std::invalid_argument);
}

TEST(SuffixArray, InvertIsInverse) {
  const std::string t = random_text(44, 500, 4);
  const auto sa = build_suffix_array(t, 4);
  const auto rank = invert_suffix_array(sa);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(rank[static_cast<std::size_t>(sa[i])],
              static_cast<std::int32_t>(i));
  }
}

TEST(SuffixArray, SortsWorkloadTexts) {
  // The benchmark's texts: paper_160k at n = 500 and paper_22k at n = 200.
  const auto p160k = synth::generate(synth::paper_160k(500 / 160'000.0, 7));
  EXPECT_TRUE(sorts(ConcatText(p160k.sequences))) << "paper_160k";
  const auto p22k = synth::generate(synth::paper_22k(200 / 22'186.0, 7));
  EXPECT_TRUE(sorts(ConcatText(p22k.sequences))) << "paper_22k";
}

TEST(SuffixArray, SortsDegenerateTexts) {
  // A unary text needs log2 n doubling rounds, each over one group of
  // about n suffixes that most share one key (ternary-split quicksort
  // closes them as one new group in one partition step).
  EXPECT_TRUE(sorts(repeated_text(std::string(200'000, '\3'), 1))) << "unary";
  std::string period2(200'000, '\4');
  for (std::size_t i = 1; i < period2.size(); i += 2) period2[i] = '\7';
  EXPECT_TRUE(sorts(repeated_text(period2, 1))) << "period 2";
  // One long ORF present twice: its suffixes pair up with LCPs of up to
  // 35,000 residues.
  util::Xoshiro256 rng(101);
  std::string orf(35'000, '\0');
  for (auto& c : orf) c = static_cast<char>(rng.below(seq::kNumResidues));
  EXPECT_TRUE(sorts(repeated_text(orf, 2))) << "35,000-residue sequence twice";
}

}  // namespace
}  // namespace pclust::suffix
