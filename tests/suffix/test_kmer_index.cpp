#include "pclust/suffix/kmer_index.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "pclust/synth/generator.hpp"

namespace pclust::suffix {
namespace {

TEST(KmerIndex, SharedWordIndexed) {
  seq::SequenceSet set;
  set.add("a", "WWWDEFGHIKLMWWW");
  set.add("b", "MMDEFGHIKLMMM");
  set.add("c", "YYYYYYYYYYYY");
  KmerIndex idx(set, {}, KmerIndex::Params{.w = 10});
  // "DEFGHIKLM" is 9 long; shared 10-mers: "DEFGHIKLMW"? no — shared words
  // must appear in BOTH. Shared substring is "DEFGHIKLM" (9) plus b has
  // "DEFGHIKLMM" and a has "DEFGHIKLMW": no shared 10-mer.
  EXPECT_EQ(idx.word_count(), 0u);

  KmerIndex idx8(set, {}, KmerIndex::Params{.w = 8});
  // 8-mers inside "DEFGHIKLM": DEFGHIKL, EFGHIKLM -> both shared.
  EXPECT_EQ(idx8.word_count(), 2u);
  for (std::size_t w = 0; w < idx8.word_count(); ++w) {
    EXPECT_EQ(idx8.sequences_of(w), (std::vector<seq::SeqId>{0, 1}));
  }
}

TEST(KmerIndex, DecodeWordRoundTrip) {
  seq::SequenceSet set;
  set.add("a", "DEFGHIKLMN");
  set.add("b", "DEFGHIKLMN");
  KmerIndex idx(set, {}, KmerIndex::Params{.w = 10});
  ASSERT_EQ(idx.word_count(), 1u);
  EXPECT_EQ(idx.decode_word(0), "DEFGHIKLMN");
}

TEST(KmerIndex, WordsWithXSkipped) {
  seq::SequenceSet set;
  set.add("a", "DEFGXHIKLMN");
  set.add("b", "DEFGXHIKLMN");
  KmerIndex idx(set, {}, KmerIndex::Params{.w = 6});
  for (std::size_t w = 0; w < idx.word_count(); ++w) {
    EXPECT_EQ(idx.decode_word(w).find('X'), std::string::npos);
  }
  // "HIKLMN" after the X is shared and X-free.
  EXPECT_EQ(idx.word_count(), 1u);
  EXPECT_EQ(idx.decode_word(0), "HIKLMN");
}

TEST(KmerIndex, DuplicateOccurrencesCollapsePerSequence) {
  seq::SequenceSet set;
  set.add("a", "DEFGHIDEFGHI");  // word appears twice in a
  set.add("b", "XXDEFGHIXX");
  KmerIndex idx(set, {}, KmerIndex::Params{.w = 6});
  ASSERT_EQ(idx.word_count(), 1u);
  EXPECT_EQ(idx.sequences_of(0).size(), 2u);  // distinct sequences only
}

TEST(KmerIndex, SubsetRestriction) {
  seq::SequenceSet set;
  set.add("a", "DEFGHIKLMN");
  set.add("b", "DEFGHIKLMN");
  set.add("c", "DEFGHIKLMN");
  KmerIndex idx(set, {0, 2}, KmerIndex::Params{.w = 10});
  ASSERT_EQ(idx.word_count(), 1u);
  EXPECT_EQ(idx.sequences_of(0), (std::vector<seq::SeqId>{0, 2}));
}

TEST(KmerIndex, InvalidWThrows) {
  seq::SequenceSet set;
  set.add("a", "DEFGHIKLMN");
  EXPECT_THROW(KmerIndex(set, {}, KmerIndex::Params{.w = 1}),
               std::invalid_argument);
  EXPECT_THROW(KmerIndex(set, {}, KmerIndex::Params{.w = 13}),
               std::invalid_argument);
}

TEST(KmerIndex, MatchesBruteForceOnSynthetic) {
  synth::DatasetSpec spec;
  spec.num_sequences = 50;
  spec.num_families = 4;
  spec.mean_length = 40;
  const auto d = synth::generate(spec);
  const std::uint32_t w = 8;
  KmerIndex idx(d.sequences, {}, KmerIndex::Params{.w = w});

  // Brute force: ASCII w-mers (X-free) -> distinct sequence sets.
  std::map<std::string, std::set<seq::SeqId>> ref;
  for (seq::SeqId id = 0; id < d.sequences.size(); ++id) {
    const std::string ascii = d.sequences.ascii(id);
    if (ascii.size() < w) continue;
    for (std::size_t i = 0; i + w <= ascii.size(); ++i) {
      const std::string word = ascii.substr(i, w);
      if (word.find('X') != std::string::npos) continue;
      ref[word].insert(id);
    }
  }
  std::erase_if(ref, [](const auto& kv) { return kv.second.size() < 2; });

  ASSERT_EQ(idx.word_count(), ref.size());
  for (std::size_t wi = 0; wi < idx.word_count(); ++wi) {
    const auto it = ref.find(idx.decode_word(wi));
    ASSERT_NE(it, ref.end()) << idx.decode_word(wi);
    const auto members = idx.sequences_of(wi);
    EXPECT_EQ(std::set<seq::SeqId>(members.begin(), members.end()),
              it->second);
  }
}

TEST(KmerIndex, MemoryUsageCoversCsrArrays) {
  seq::SequenceSet set;
  set.add("a", "WWWDEFGHIKLMWWW");
  set.add("b", "MMDEFGHIKLMMM");
  const KmerIndex idx(set, {}, KmerIndex::Params{.w = 8});
  ASSERT_GT(idx.word_count(), 0u);
  const auto b = idx.memory_usage();
  EXPECT_EQ(b.name, "kmer_index");
  ASSERT_EQ(b.parts.size(), 3u);
  // One packed u64 per word plus CSR offsets plus member ids.
  EXPECT_GE(b.total(), idx.word_count() * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace pclust::suffix
