#include "pclust/suffix/kmer_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "pclust/seq/alphabet.hpp"

namespace pclust::suffix {

KmerIndex::KmerIndex(const seq::SequenceSet& set,
                     const std::vector<seq::SeqId>& ids, Params params)
    : params_(params) {
  if (params_.w < 2 || params_.w > 12) {
    throw std::invalid_argument("KmerIndex: w must be in [2, 12]");
  }

  std::vector<seq::SeqId> all;
  const std::vector<seq::SeqId>* use = &ids;
  if (ids.empty()) {
    all.resize(set.size());
    for (seq::SeqId i = 0; i < set.size(); ++i) all[i] = i;
    use = &all;
  }

  // Collect (packed word, sequence) pairs, then sort + unique to get per-word
  // distinct-sequence lists.
  std::vector<std::pair<std::uint64_t, seq::SeqId>> entries;
  const std::uint64_t mask =
      (params_.w >= 12) ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << (5 * params_.w)) - 1);
  for (seq::SeqId id : *use) {
    const auto residues = set.residues(id);
    if (residues.size() < params_.w) continue;
    std::uint64_t packed = 0;
    std::uint32_t valid = 0;  // consecutive non-X residues accumulated
    for (std::size_t i = 0; i < residues.size(); ++i) {
      const auto r = static_cast<std::uint8_t>(residues[i]);
      if (r >= seq::kRankX) {
        packed = 0;
        valid = 0;
        continue;
      }
      packed = ((packed << 5) | r) & mask;
      if (++valid >= params_.w) entries.emplace_back(packed, id);
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  word_offsets_.push_back(0);
  std::size_t i = 0;
  while (i < entries.size()) {
    std::size_t j = i;
    while (j < entries.size() && entries[j].first == entries[i].first) ++j;
    if (j - i >= 2) {
      words_.push_back(entries[i].first);
      for (std::size_t k = i; k < j; ++k) members_.push_back(entries[k].second);
      word_offsets_.push_back(static_cast<std::uint32_t>(members_.size()));
    }
    i = j;
  }
}

std::vector<seq::SeqId> KmerIndex::sequences_of(std::size_t w_idx) const {
  return {members_.begin() + word_offsets_[w_idx],
          members_.begin() + word_offsets_[w_idx + 1]};
}

std::string KmerIndex::decode_word(std::size_t w_idx) const {
  std::string out(params_.w, '?');
  std::uint64_t packed = words_[w_idx];
  for (std::uint32_t i = 0; i < params_.w; ++i) {
    out[params_.w - 1 - i] =
        seq::rank_to_char(static_cast<std::uint8_t>(packed & 0x1F));
    packed >>= 5;
  }
  return out;
}

util::MemoryBreakdown KmerIndex::memory_usage() const {
  util::MemoryBreakdown b("kmer_index");
  b.add("words", util::vector_bytes(words_));
  b.add("word_offsets", util::vector_bytes(word_offsets_));
  b.add("members", util::vector_bytes(members_));
  return b;
}

}  // namespace pclust::suffix
