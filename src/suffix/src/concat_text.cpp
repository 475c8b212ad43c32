#include "pclust/suffix/concat_text.hpp"

#include <numeric>

#include "pclust/seq/alphabet.hpp"

namespace pclust::suffix {

ConcatText::ConcatText(const seq::SequenceSet& set) {
  std::vector<seq::SeqId> ids(set.size());
  std::iota(ids.begin(), ids.end(), seq::SeqId{0});
  build(set, ids);
}

ConcatText::ConcatText(const seq::SequenceSet& set,
                       const std::vector<seq::SeqId>& ids) {
  build(set, ids);
}

void ConcatText::build(const seq::SequenceSet& set,
                       const std::vector<seq::SeqId>& ids) {
  std::size_t total = 0;
  for (seq::SeqId id : ids) total += set.length(id) + 1;
  text_.reserve(total);
  starts_.reserve(ids.size());
  original_ = ids;
  for (seq::SeqId id : ids) {
    starts_.push_back(text_.size());
    text_.append(set.residues(id));
    text_.push_back(static_cast<char>(seq::kRankSeparator));
  }
  block_owner_.resize((text_.size() + (1u << kBlockShift) - 1) >> kBlockShift);
  for (std::size_t b = 0, idx = 0; b < block_owner_.size(); ++b) {
    const std::size_t pos = b << kBlockShift;
    while (idx + 1 < starts_.size() && starts_[idx + 1] <= pos) ++idx;
    block_owner_[b] = static_cast<std::uint32_t>(idx);
  }
}

std::size_t ConcatText::index_at(std::size_t pos) const {
  std::size_t idx = block_owner_[pos >> kBlockShift];
  while (idx + 1 < starts_.size() && starts_[idx + 1] <= pos) ++idx;
  return idx;
}

seq::SeqId ConcatText::sequence_at(std::size_t pos) const {
  return original_[index_at(pos)];
}

std::uint32_t ConcatText::offset_at(std::size_t pos) const {
  return static_cast<std::uint32_t>(pos - starts_[index_at(pos)]);
}

std::uint32_t ConcatText::run_length(std::size_t pos) const {
  if (is_separator(pos)) return 0;
  const std::size_t idx = index_at(pos);
  // The owning sequence's separator sits just before the next start.
  const std::size_t end =
      idx + 1 < starts_.size() ? starts_[idx + 1] - 1 : text_.size() - 1;
  return static_cast<std::uint32_t>(end - pos);
}

std::uint8_t ConcatText::left_char(std::size_t pos) const {
  if (pos == 0) return seq::kRankSeparator;
  return at(pos - 1);  // a separator if pos starts a sequence
}

util::MemoryBreakdown ConcatText::memory_usage() const {
  util::MemoryBreakdown b("concat_text");
  b.add("text", util::string_bytes(text_));
  b.add("starts", util::vector_bytes(starts_));
  b.add("original_ids", util::vector_bytes(original_));
  b.add("blocks", util::vector_bytes(block_owner_));
  return b;
}

}  // namespace pclust::suffix
