#include "pclust/suffix/concat_text.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pclust/seq/alphabet.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::suffix {
namespace {

seq::SequenceSet make_set() {
  seq::SequenceSet set;
  set.add("a", "ACDE");   // positions 0..3, separator at 4
  set.add("b", "FF");     // positions 5..6, separator at 7
  set.add("c", "GHIKL");  // positions 8..12, separator at 13
  return set;
}

TEST(ConcatText, LayoutAndSize) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.size(), 4u + 1 + 2 + 1 + 5 + 1);
  EXPECT_EQ(text.sequence_count(), 3u);
  EXPECT_TRUE(text.is_separator(4));
  EXPECT_TRUE(text.is_separator(7));
  EXPECT_TRUE(text.is_separator(13));
  EXPECT_FALSE(text.is_separator(0));
}

TEST(ConcatText, SequenceAtAndOffsetAt) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.sequence_at(0), 0u);
  EXPECT_EQ(text.sequence_at(3), 0u);
  EXPECT_EQ(text.sequence_at(5), 1u);
  EXPECT_EQ(text.sequence_at(8), 2u);
  EXPECT_EQ(text.sequence_at(12), 2u);
  EXPECT_EQ(text.offset_at(0), 0u);
  EXPECT_EQ(text.offset_at(6), 1u);
  EXPECT_EQ(text.offset_at(12), 4u);
}

TEST(ConcatText, RunLength) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.run_length(0), 4u);
  EXPECT_EQ(text.run_length(3), 1u);
  EXPECT_EQ(text.run_length(4), 0u);  // separator
  EXPECT_EQ(text.run_length(8), 5u);
}

TEST(ConcatText, LeftChar) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.left_char(0), seq::kRankSeparator);  // text start
  EXPECT_EQ(text.left_char(5), seq::kRankSeparator);  // sequence start
  EXPECT_EQ(text.left_char(1), seq::char_to_rank('A'));
  EXPECT_EQ(text.left_char(9), seq::char_to_rank('G'));
}

TEST(ConcatText, SubsetMapsToOriginalIds) {
  const auto set = make_set();
  const ConcatText text(set, {2, 0});
  EXPECT_EQ(text.sequence_count(), 2u);
  EXPECT_EQ(text.sequence_at(0), 2u);  // first subset sequence is "c"
  EXPECT_EQ(text.at(0), seq::char_to_rank('G'));
  EXPECT_EQ(text.sequence_at(6), 0u);  // then "a"
  EXPECT_EQ(text.offset_at(6), 0u);
}

TEST(ConcatText, StartOf) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.start_of(0), 0u);
  EXPECT_EQ(text.start_of(1), 5u);
  EXPECT_EQ(text.start_of(2), 8u);
}

/// Every position of @p text against references that walk to the next
/// separator and binary-search the start offsets.
void expect_position_queries_match(const ConcatText& text,
                                   const std::vector<seq::SeqId>& ids) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    starts.push_back(text.start_of(i));
  }
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    const auto owner = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), pos) - starts.begin() -
        1);
    std::uint32_t run = 0;
    while (pos + run < text.size() && !text.is_separator(pos + run)) ++run;
    ASSERT_EQ(text.sequence_at(pos), ids[owner]) << "pos " << pos;
    ASSERT_EQ(text.offset_at(pos), pos - starts[owner]) << "pos " << pos;
    ASSERT_EQ(text.run_length(pos), run) << "pos " << pos;
  }
}

TEST(ConcatText, PositionQueriesMatchWalkAndBinarySearchEverywhere) {
  // Lengths around the 64-position block: 1-residue sequences (several in
  // a row) and sequences shorter and longer than a block. In id order the
  // first two put a separator on position 64 and a sequence start on 128.
  util::Xoshiro256 rng(1964);
  std::vector<std::size_t> lengths = {64, 62, 1, 1, 1, 3, 63, 65, 1,
                                      200, 2, 127, 128, 129, 1, 700};
  for (int k = 0; k < 60; ++k) lengths.push_back(1 + rng.below(150));
  const std::string residues = "ACDEFGHIKLMNPQRSTVWY";
  seq::SequenceSet set;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::string s;
    for (std::size_t k = 0; k < lengths[i]; ++k) {
      s.push_back(residues[rng.below(residues.size())]);
    }
    set.add("s" + std::to_string(i), s);
  }
  std::vector<seq::SeqId> all(set.size());
  for (seq::SeqId id = 0; id < set.size(); ++id) all[id] = id;
  const ConcatText whole(set);
  ASSERT_TRUE(whole.is_separator(64));
  ASSERT_EQ(whole.start_of(2), 128u);
  expect_position_queries_match(whole, all);

  // A subset in shuffled order: positions must map to the original ids.
  std::vector<seq::SeqId> ids;
  for (seq::SeqId id = 0; id < set.size(); ++id) {
    if (id % 7 != 3) ids.push_back(id);
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  const ConcatText text(set, ids);
  expect_position_queries_match(text, ids);

  // The block table costs one 4-byte entry per 64 positions, on the books.
  const auto parts = text.memory_usage().parts;
  const auto blocks =
      std::find_if(parts.begin(), parts.end(),
                   [](const auto& p) { return p.first == "blocks"; });
  ASSERT_NE(blocks, parts.end());
  EXPECT_EQ(blocks->second, (text.size() + 63) / 64 * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace pclust::suffix
