#include "pclust/suffix/maximal_match.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "pclust/synth/generator.hpp"

namespace pclust::suffix {
namespace {

struct Fixture {
  seq::SequenceSet set;
  std::unique_ptr<ConcatText> text;
  std::vector<std::int32_t> sa;
  std::vector<std::int32_t> lcp;

  explicit Fixture(const seq::SequenceSet& sequences) : set(sequences) {
    init();
  }
  explicit Fixture(std::initializer_list<const char*> seqs) {
    int i = 0;
    for (const char* s : seqs) set.add("s" + std::to_string(i++), s);
    init();
  }
  void init() {
    text = std::make_unique<ConcatText>(set);
    sa = build_suffix_array(text->text(), seq::kIndexAlphabetSize);
    lcp = build_lcp(*text, sa);
  }
  [[nodiscard]] std::vector<MaximalMatch> matches(
      MaximalMatchParams params = {}) const {
    return MaximalMatchEnumerator(*text, sa, lcp, params).all();
  }
};

using Key = std::tuple<seq::SeqId, seq::SeqId, std::uint32_t, std::uint32_t,
                       std::uint32_t>;

Key key(const MaximalMatch& m) {
  return {m.a, m.b, m.a_pos, m.b_pos, m.length};
}

/// O(n^2 * len^2) reference: every position pair across different sequences,
/// extended maximally and tested for flank maximality.
std::multiset<Key> brute_force(const seq::SequenceSet& set,
                               std::uint32_t min_len) {
  std::multiset<Key> out;
  for (seq::SeqId a = 0; a < set.size(); ++a) {
    for (seq::SeqId b = a + 1; b < set.size(); ++b) {
      const auto sa_res = set.residues(a);
      const auto sb_res = set.residues(b);
      for (std::uint32_t i = 0; i < sa_res.size(); ++i) {
        for (std::uint32_t j = 0; j < sb_res.size(); ++j) {
          // Left-maximal?
          if (i > 0 && j > 0 && sa_res[i - 1] == sb_res[j - 1]) continue;
          std::uint32_t len = 0;
          while (i + len < sa_res.size() && j + len < sb_res.size() &&
                 sa_res[i + len] == sb_res[j + len]) {
            ++len;
          }
          if (len < min_len) continue;  // also skips len == 0 (right-maximal)
          out.insert({a, b, i, j, len});
        }
      }
    }
  }
  return out;
}

TEST(MaximalMatch, SimpleSharedWord) {
  Fixture f({"WWWDEFGHIKWWW", "MMDEFGHIKMM"});
  MaximalMatchParams p;
  p.min_length = 5;
  const auto ms = f.matches(p);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].a, 0u);
  EXPECT_EQ(ms[0].b, 1u);
  EXPECT_EQ(ms[0].a_pos, 3u);
  EXPECT_EQ(ms[0].b_pos, 2u);
  EXPECT_EQ(ms[0].length, 7u);
  EXPECT_EQ(ms[0].diagonal(), 1);
}

TEST(MaximalMatch, NoMatchBelowThreshold) {
  Fixture f({"WWWDEFWWW", "MMDEFMM"});
  MaximalMatchParams p;
  p.min_length = 5;
  EXPECT_TRUE(f.matches(p).empty());
  p.min_length = 3;
  EXPECT_EQ(f.matches(p).size(), 1u);
}

TEST(MaximalMatch, MatchAtSequenceBoundariesIsMaximal) {
  // Match runs to both sequence starts and both ends: flanks are
  // boundaries, so it must be reported.
  Fixture f({"DEFGH", "DEFGH"});
  MaximalMatchParams p;
  p.min_length = 5;
  const auto ms = f.matches(p);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].length, 5u);
  EXPECT_EQ(ms[0].a_pos, 0u);
  EXPECT_EQ(ms[0].b_pos, 0u);
}

TEST(MaximalMatch, NonLeftMaximalPairSuppressed) {
  // "ADEFGH" vs "ADEFGH": the length-6 match at (0,0) is reported; the
  // inner (1,1) "DEFGH" must NOT be (same left char 'A').
  Fixture f({"ADEFGH", "ADEFGH"});
  MaximalMatchParams p;
  p.min_length = 4;
  const auto ms = f.matches(p);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].length, 6u);
}

TEST(MaximalMatch, WithinSequenceRepeatsIgnored) {
  Fixture f({"DEFGHDEFGH"});  // repeat within ONE sequence: no pairs
  MaximalMatchParams p;
  p.min_length = 4;
  EXPECT_TRUE(f.matches(p).empty());
}

TEST(MaximalMatch, DecreasingLengthOrder) {
  Fixture f({"AAADEFGHIKLMAAA" "CCQRSTVWCC",
             "MMDEFGHIKLMMM" "WWQRSTVWWW",
             "DEFGHYYYYY"});
  MaximalMatchParams p;
  p.min_length = 5;
  const auto ms = f.matches(p);
  ASSERT_GE(ms.size(), 3u);
  for (std::size_t i = 1; i < ms.size(); ++i) {
    EXPECT_GE(ms[i - 1].length, ms[i].length);
  }
}

TEST(MaximalMatch, PairsNormalized) {
  Fixture f({"MMDEFGHIKMM", "WWWDEFGHIKWWW"});
  MaximalMatchParams p;
  p.min_length = 5;
  for (const auto& m : f.matches(p)) EXPECT_LT(m.a, m.b);
}

class MaximalMatchRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaximalMatchRandom, MatchesBruteForce) {
  synth::DatasetSpec spec;
  spec.seed = GetParam();
  spec.num_sequences = 30;
  spec.num_families = 3;
  spec.mean_length = 60;
  spec.noise_fraction = 0.2;
  spec.redundant_fraction = 0.1;
  spec.max_divergence = 0.2;
  const auto d = synth::generate(spec);
  Fixture f(d.sequences);

  MaximalMatchParams p;
  p.min_length = 6;
  p.max_node_occurrences = 0;  // unlimited: brute force has no cap either
  std::multiset<Key> got;
  for (const auto& m : f.matches(p)) got.insert(key(m));
  const auto expected = brute_force(d.sequences, p.min_length);
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaximalMatchRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 21, 22, 23));

TEST(MaximalMatch, EarlyStopHonored) {
  Fixture f({"DEFGHIKLMN", "DEFGHIKLMN", "DEFGHIKLMN"});
  MaximalMatchParams p;
  p.min_length = 4;
  MaximalMatchEnumerator e(*f.text, f.sa, f.lcp, p);
  int count = 0;
  const auto stats = e.enumerate(
      0, static_cast<std::int32_t>(f.sa.size()) - 1,
      [&count](const MaximalMatch&) { return ++count < 2; });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(stats.pairs_emitted, 2u);
}

TEST(MaximalMatch, BigNodeSkipped) {
  seq::SequenceSet set;
  for (int i = 0; i < 20; ++i) {
    set.add("s" + std::to_string(i), "DEFGHIKLMN");
  }
  Fixture f(set);
  MaximalMatchParams p;
  p.min_length = 4;
  p.max_node_occurrences = 5;
  MaximalMatchEnumerator e(*f.text, f.sa, f.lcp, p);
  const auto stats = e.enumerate(
      0, static_cast<std::int32_t>(f.sa.size()) - 1,
      [](const MaximalMatch&) { return true; });
  EXPECT_GT(stats.nodes_skipped_big, 0u);
  EXPECT_EQ(stats.pairs_emitted, 0u);
}

TEST(PrefixBuckets, CoverAllResiduePositionsDisjointly) {
  synth::DatasetSpec spec;
  spec.num_sequences = 40;
  spec.num_families = 3;
  spec.mean_length = 50;
  const auto d = synth::generate(spec);
  Fixture f(d.sequences);
  MaximalMatchEnumerator e(*f.text, f.sa, f.lcp, {});
  const auto buckets = e.prefix_buckets(3);
  std::vector<bool> covered(f.sa.size(), false);
  for (const auto& b : buckets) {
    ASSERT_LE(b.lb, b.rb);
    for (std::int32_t i = b.lb; i <= b.rb; ++i) {
      ASSERT_FALSE(covered[static_cast<std::size_t>(i)]);
      covered[static_cast<std::size_t>(i)] = true;
    }
    EXPECT_GT(b.weight, 0u);
  }
  // Every non-separator suffix is covered; separator suffixes are not.
  for (std::size_t i = 0; i < f.sa.size(); ++i) {
    const bool sep =
        f.text->is_separator(static_cast<std::size_t>(f.sa[i]));
    EXPECT_EQ(covered[i], !sep) << "SA index " << i;
  }
}

TEST(PrefixBuckets, UnionOfBucketEnumerationsEqualsWhole) {
  synth::DatasetSpec spec;
  spec.seed = 77;
  spec.num_sequences = 40;
  spec.num_families = 4;
  spec.mean_length = 60;
  const auto d = synth::generate(spec);
  Fixture f(d.sequences);
  MaximalMatchParams p;
  p.min_length = 6;
  MaximalMatchEnumerator e(*f.text, f.sa, f.lcp, p);

  std::multiset<Key> whole;
  for (const auto& m : e.all()) whole.insert(key(m));

  std::multiset<Key> pieced;
  for (const auto& b : e.prefix_buckets(3)) {
    e.enumerate(b.lb, b.rb, [&pieced](const MaximalMatch& m) {
      pieced.insert(key(m));
      return true;
    });
  }
  EXPECT_EQ(whole, pieced);
}

}  // namespace
}  // namespace pclust::suffix
