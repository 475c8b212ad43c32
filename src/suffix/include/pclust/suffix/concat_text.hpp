// ConcatText: the concatenated rank-encoded text over which all suffix
// structures are built.
//
// Layout: seq_0 SEP seq_1 SEP ... seq_{n-1} SEP  (SEP = seq::kRankSeparator).
// A position's owning sequence is found in O(1): a block table holds the
// owner of every 64th position, and a short forward step over the start
// offsets (one per sequence starting inside that block) finishes the
// lookup. Exact matches never cross a separator (the LCP array is
// truncated accordingly, see lcp.hpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "pclust/seq/alphabet.hpp"
#include "pclust/seq/sequence_set.hpp"
#include "pclust/util/memsize.hpp"

namespace pclust::suffix {

class ConcatText {
 public:
  /// Build over all sequences of @p set (which must outlive this object).
  explicit ConcatText(const seq::SequenceSet& set);

  /// Build over a subset of sequence ids. Positions map back to the
  /// ORIGINAL ids in @p set.
  ConcatText(const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids);

  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] std::size_t size() const { return text_.size(); }
  [[nodiscard]] std::uint8_t at(std::size_t pos) const {
    return static_cast<std::uint8_t>(text_[pos]);
  }

  [[nodiscard]] std::size_t sequence_count() const { return starts_.size(); }

  /// Owning sequence (original SeqId) of global position @p pos; pos must
  /// not point at a separator.
  [[nodiscard]] seq::SeqId sequence_at(std::size_t pos) const;

  /// Offset of @p pos within its owning sequence.
  [[nodiscard]] std::uint32_t offset_at(std::size_t pos) const;

  /// Residues remaining in the owning sequence from @p pos (distance to the
  /// following separator). 0 if pos is itself a separator.
  [[nodiscard]] std::uint32_t run_length(std::size_t pos) const;

  /// The residue preceding @p pos within the same sequence, or
  /// seq::kRankSeparator if pos is the first residue of its sequence.
  /// Left-maximality of matches is tested against this.
  [[nodiscard]] std::uint8_t left_char(std::size_t pos) const;

  [[nodiscard]] bool is_separator(std::size_t pos) const {
    return at(pos) >= seq::kRankSeparator;
  }

  /// Global start position of the i-th sequence in the subset order.
  [[nodiscard]] std::size_t start_of(std::size_t i) const { return starts_[i]; }

  /// Heap footprint: concatenated residues plus the position maps.
  [[nodiscard]] util::MemoryBreakdown memory_usage() const;

 private:
  static constexpr unsigned kBlockShift = 6;  // 64 positions per block

  void build(const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids);

  /// Subset index of the sequence whose residues or separator sit at @p pos.
  [[nodiscard]] std::size_t index_at(std::size_t pos) const;

  std::string text_;
  std::vector<std::size_t> starts_;   // global start of each subset sequence
  std::vector<seq::SeqId> original_;  // subset index -> original SeqId
  std::vector<std::uint32_t> block_owner_;  // index_at(b * 64) per block b
};

}  // namespace pclust::suffix
