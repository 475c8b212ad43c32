// Fixed-length exact-word (w-mer) index for the paper's domain-based
// bipartite reduction B_m (§III): V_m = all w-length strings occurring in at
// least two different input sequences, with an edge (e_i, s_j) whenever e_i
// is a substring of s_j.
//
// w defaults to 10 residues (paper: w ≈ 10). Words containing the ambiguity
// residue 'X' are skipped — they would connect unrelated sequences.
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/seq/sequence_set.hpp"
#include "pclust/util/memsize.hpp"

namespace pclust::suffix {

class KmerIndex {
 public:
  struct Params {
    std::uint32_t w = 10;
  };

  /// Index the given sequences (or all of @p set if @p ids is empty).
  KmerIndex(const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
            Params params);

  [[nodiscard]] const Params& params() const { return params_; }

  /// Number of distinct words kept (present in >= 2 distinct sequences).
  [[nodiscard]] std::size_t word_count() const { return word_offsets_.size() - 1; }

  /// Distinct sequences containing word @p w_idx (sorted ascending).
  [[nodiscard]] std::vector<seq::SeqId> sequences_of(std::size_t w_idx) const;

  /// Packed value of word @p w_idx (5 bits per residue, w <= 12).
  [[nodiscard]] std::uint64_t packed_word(std::size_t w_idx) const {
    return words_[w_idx];
  }

  /// Decode a packed word back to ASCII (for reports).
  [[nodiscard]] std::string decode_word(std::size_t w_idx) const;

  /// Heap footprint: packed words plus the CSR membership lists.
  [[nodiscard]] util::MemoryBreakdown memory_usage() const;

 private:
  Params params_;
  std::vector<std::uint64_t> words_;          // packed, sorted
  std::vector<std::uint32_t> word_offsets_;   // CSR into members_
  std::vector<seq::SeqId> members_;
};

}  // namespace pclust::suffix
