#include "pclust/gos/seeded_aligner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "pclust/seq/alphabet.hpp"

namespace pclust::gos {

SeededAligner::SeededAligner(const seq::SequenceSet& set,
                             SeededAlignerParams params,
                             const align::ScoringScheme& scheme)
    : set_(set), params_(params), scheme_(scheme) {
  if (params_.word_size < 2 || params_.word_size > 12) {
    throw std::invalid_argument("SeededAligner: word_size must be in [2,12]");
  }
  const std::uint32_t w = params_.word_size;
  const std::uint64_t mask = (w >= 12) ? ~std::uint64_t{0}
                                       : ((std::uint64_t{1} << (5 * w)) - 1);
  words_.resize(set.size());
  for (seq::SeqId id = 0; id < set.size(); ++id) {
    const auto residues = set.residues(id);
    if (residues.size() < w) continue;
    auto& list = words_[id];
    std::uint64_t packed = 0;
    std::uint32_t valid = 0;
    for (std::size_t i = 0; i < residues.size(); ++i) {
      const auto r = static_cast<std::uint8_t>(residues[i]);
      if (r >= seq::kRankX) {  // X never seeds
        packed = 0;
        valid = 0;
        continue;
      }
      packed = ((packed << 5) | r) & mask;
      if (++valid >= w) {
        list.emplace_back(packed, static_cast<std::uint32_t>(i + 1 - w));
      }
    }
    std::sort(list.begin(), list.end());
  }
}

std::optional<std::int64_t> SeededAligner::best_diagonal(seq::SeqId a,
                                                         seq::SeqId b) const {
  const auto& wa = words_[a];
  const auto& wb = words_[b];
  std::map<std::int64_t, std::uint32_t> hits;  // diagonal -> hit count
  std::size_t i = 0, j = 0;
  while (i < wa.size() && j < wb.size()) {
    if (wa[i].first < wb[j].first) {
      ++i;
    } else if (wa[i].first > wb[j].first) {
      ++j;
    } else {
      // All (i', j') occurrence combinations of this shared word.
      const std::uint64_t word = wa[i].first;
      const std::size_t i0 = i;
      while (i < wa.size() && wa[i].first == word) ++i;
      const std::size_t j0 = j;
      while (j < wb.size() && wb[j].first == word) ++j;
      for (std::size_t x = i0; x < i; ++x) {
        for (std::size_t y = j0; y < j; ++y) {
          ++hits[static_cast<std::int64_t>(wa[x].second) -
                 static_cast<std::int64_t>(wb[y].second)];
        }
      }
    }
  }
  if (hits.empty()) return std::nullopt;
  auto best = hits.begin();
  for (auto it = hits.begin(); it != hits.end(); ++it) {
    if (it->second > best->second) best = it;
  }
  return best->first;
}

std::optional<align::AlignmentResult> SeededAligner::align(seq::SeqId a,
                                                           seq::SeqId b) {
  const auto diagonal = best_diagonal(a, b);
  if (!diagonal) {
    ++seedless_pairs_;
    return std::nullopt;
  }
  ++seeded_pairs_;
  const auto res_a = set_.residues(a);
  const auto res_b = set_.residues(b);
  const align::AlignmentResult r = align::banded_local_align_score(
      res_a, res_b, scheme_, *diagonal, params_.band);
  total_cells_ += r.cells;
  return r;
}

}  // namespace pclust::gos
