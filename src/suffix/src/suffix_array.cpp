#include "pclust/suffix/suffix_array.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pclust/seq/alphabet.hpp"
#include "pclust/suffix/concat_text.hpp"

namespace pclust::suffix {

namespace {

/// At most this many counting-sort passes of two symbols each; fewer when
/// the packed key of 2 x passes symbols would not fit in 31 bits.
constexpr int kMaxRadixPasses = 3;

/// Tied groups of at most this many suffixes sort by insertion.
constexpr std::size_t kSmallGroup = 16;

/// Prefix-doubling suffix sorter (Larsson & Sadakane 2007), without
/// recursion.
///
/// Stage 1 sorts the suffixes by their first 2 x passes symbols: each
/// position's symbols are packed into one key, and least-significant-digit
/// counting-sort passes order the SA by the key two symbols per pass.
/// Stage 2 doubles h: rank_[i] is the last SA index of the group of
/// suffixes that share i's first h symbols, so sorting each still-tied
/// group by rank_[i + h] orders it by 2h symbols. Each group is sorted and
/// its new ranks committed in one pass over its slots (Larsson and
/// Sadakane's in-place update): a group that reads ranks refined earlier in
/// the round sorts by more than 2h symbols, which still orders it. Groups
/// that come out of a round as one suffix join the runs of finished slots
/// that later rounds skip.
///
/// Groups sort by ternary-split quicksort, as in Larsson and Sadakane: in
/// each partition step a suffix either lands in the new group equal to the
/// pivot or goes on in a part at most half as large when the pivot is the
/// median, so over all rounds a suffix takes part in O(log n) steps and the
/// sort is O(n log n). The pivot is Bentley and McIlroy's pseudo-median,
/// which is not always the median. A unary text takes log2 n rounds, each
/// one partition of about n suffixes around the key most of them share.
class SuffixSorter {
 public:
  SuffixSorter(std::string_view text, int alphabet)
      : text_(text),
        n_(text.size()),
        bits_(std::bit_width(static_cast<unsigned>(std::min(alphabet, 256)))),
        passes_(std::min(kMaxRadixPasses, 31 / (2 * bits_))),
        sa_(n_),
        rank_(new std::int32_t[n_]),
        tmp_(new std::int32_t[n_]) {}

  std::vector<std::int32_t> run() && {
    pack_keys();
    radix_passes();
    std::size_t tied = number_groups();
    for (std::size_t h = 2 * static_cast<std::size_t>(passes_); tied > 0;
         h *= 2) {
      tied = double_round(h);
    }
    return std::move(sa_);
  }

 private:
  /// rank_[i] = the first 2 x passes_ symbols at i, bits_ bits each, every
  /// symbol shifted past 0, the implicit sentinel past the end.
  void pack_keys() {
    const std::size_t width = 2 * static_cast<std::size_t>(passes_);
    const std::uint32_t mask = (std::uint32_t{1} << (bits_ * width)) - 1;
    const auto sym = [this](std::size_t i) -> std::uint32_t {
      return i < n_ ? static_cast<std::uint8_t>(text_[i]) + 1u : 0u;
    };
    std::uint32_t key = 0;
    for (std::size_t t = 0; t + 1 < width; ++t) key = (key << bits_) | sym(t);
    for (std::size_t i = 0; i < n_; ++i) {
      key = ((key << bits_) | sym(i + width - 1)) & mask;
      rank_[i] = static_cast<std::int32_t>(key);
    }
  }

  /// Stage 1: passes_ stable counting sorts by the keys' two-symbol
  /// digits, last digit first, ping-ponging between tmp_ and sa_ so that
  /// the last pass lands in sa_.
  void radix_passes() {
    const unsigned digit_bits = 2 * static_cast<unsigned>(bits_);
    const std::size_t buckets = std::size_t{1} << digit_bits;
    std::vector<std::uint32_t> next(buckets);
    for (int pass = 0; pass < passes_; ++pass) {
      const unsigned shift = digit_bits * static_cast<unsigned>(pass);
      const auto digit = [this, shift, buckets](std::size_t p) {
        return (static_cast<std::uint32_t>(rank_[p]) >> shift) & (buckets - 1);
      };
      std::int32_t* out = (passes_ - pass) % 2 == 1 ? sa_.data() : tmp_.get();
      const std::int32_t* in = out == sa_.data() ? tmp_.get() : sa_.data();
      // The counts do not depend on the order, and text order reads the
      // keys in sequence.
      std::fill(next.begin(), next.end(), 0u);
      for (std::size_t p = 0; p < n_; ++p) ++next[digit(p)];
      std::uint32_t sum = 0;
      for (std::uint32_t& slot : next) sum += std::exchange(slot, sum);
      for (std::size_t j = 0; j < n_; ++j) {
        const std::size_t p = pass == 0 ? j : static_cast<std::size_t>(in[j]);
        out[next[digit(p)]++] = static_cast<std::int32_t>(p);
      }
    }
  }

  /// Numbers the stage-1 groups (rank_ = each group's last SA index, in
  /// place of the keys) and turns single-suffix groups into finished runs.
  /// Returns the number of slots still tied.
  std::size_t number_groups() {
    // tmp_[j] = the key of SA slot j; then a slot is a group head where
    // the key changes, and the group ends before the next head.
    for (std::size_t j = 0; j < n_; ++j) tmp_[j] = rank_[sa_[j]];
    // Walk backwards, so a slot turns into a run only after its
    // successor's head test has read it.
    std::size_t tied = 0;
    std::size_t end = n_ - 1;
    bool run_follows = false;  // a finished run starts at j + 1
    for (std::size_t j = n_; j-- > 0;) {
      rank_[sa_[j]] = static_cast<std::int32_t>(end);
      if (j > 0 && tmp_[j] == tmp_[j - 1]) continue;
      if (j == end) {
        tmp_[j] = run_follows ? tmp_[j + 1] - 1 : -1;
        run_follows = true;
      } else {
        tied += end - j + 1;
        run_follows = false;
      }
      end = j - 1;
    }
    return tied;
  }

  /// Sorts the tied group sa_[lo, hi) by @p key and notes each slot's new
  /// group end in tmp_. Ternary-split quicksort (Bentley & McIlroy 1993):
  /// each partition step closes the slots equal to the pivot as one new
  /// group and goes on with the smaller of the lesser and greater parts,
  /// deferring the other, so at most log2 n parts wait at once.
  template <class Key>
  void sort_split(std::size_t lo, std::size_t hi, const Key& key) {
    std::int32_t* const sa = sa_.data();
    std::size_t waits = 0;
    for (;;) {
      if (hi - lo <= kSmallGroup) {
        small_sort_split(lo, hi, key);
        if (waits == 0) return;
        --waits;
        lo = waiting_[waits].lo;
        hi = waiting_[waits].hi;
        continue;
      }
      const std::int32_t pivot = median_key(lo, hi, key);
      // Once i meets gt: [lo, lt) < pivot, [lt, gt) == pivot and
      // [gt, hi) > pivot.
      std::size_t lt = lo;
      std::size_t i = lo;
      std::size_t gt = hi;
      while (i < gt) {
        const std::int32_t k = key(sa[i]);
        if (k < pivot) {
          std::swap(sa[lt++], sa[i++]);
        } else if (k > pivot) {
          std::swap(sa[i], sa[--gt]);
        } else {
          ++i;
        }
      }
      std::fill(tmp_.get() + lt, tmp_.get() + gt,
                static_cast<std::int32_t>(gt - 1));
      if (lt - lo > hi - gt) {
        std::swap(lo, gt);
        std::swap(hi, lt);
      }
      // Go on with [lo, lt), the smaller part; [gt, hi) waits.
      if (gt < hi) waiting_[waits++] = {gt, hi};
      hi = lt;
    }
  }

  /// Sorts sa_[lo, hi), at most kSmallGroup slots, by insertion on keys
  /// read once, and notes the new group ends in tmp_.
  template <class Key>
  void small_sort_split(std::size_t lo, std::size_t hi, const Key& key) {
    std::int32_t* const sa = sa_.data();
    std::int32_t keys[kSmallGroup] = {};
    const std::size_t m = hi - lo;
    for (std::size_t k = 0; k < m; ++k) {
      const std::int32_t s = sa[lo + k];
      const std::int32_t s_key = key(s);
      std::size_t at = k;
      for (; at > 0 && keys[at - 1] > s_key; --at) {
        keys[at] = keys[at - 1];
        sa[lo + at] = sa[lo + at - 1];
      }
      keys[at] = s_key;
      sa[lo + at] = s;
    }
    auto end = static_cast<std::int32_t>(hi - 1);
    for (std::size_t k = m; k-- > 0;) {
      if (k + 1 < m && keys[k] != keys[k + 1]) {
        end = static_cast<std::int32_t>(lo + k);
      }
      tmp_[lo + k] = end;
    }
  }

  /// Bentley and McIlroy's pivot for sa_[lo, hi): the median key of
  /// three slots, or the median of three such medians past 40 slots.
  template <class Key>
  std::int32_t median_key(std::size_t lo, std::size_t hi,
                          const Key& key) const {
    const auto median3 = [](std::int32_t a, std::int32_t b, std::int32_t c) {
      return std::max(std::min(a, b), std::min(std::max(a, b), c));
    };
    const auto at = [this, &key](std::size_t j) { return key(sa_[j]); };
    const std::size_t m = hi - lo;
    const std::size_t mid = lo + m / 2;
    if (m <= 40) return median3(at(lo), at(mid), at(hi - 1));
    const std::size_t d = m / 8;
    return median3(median3(at(lo), at(lo + d), at(lo + 2 * d)),
                   median3(at(mid - d), at(mid), at(mid + d)),
                   median3(at(hi - 1 - 2 * d), at(hi - 1 - d), at(hi - 1)));
  }

  /// One doubling round at offset @p h; returns the slots still tied
  /// after it.
  std::size_t double_round(std::size_t h) {
    // The sort key of suffix s: the rank h further on (0 past the end).
    const auto key = [this, h](std::int32_t s) {
      const auto p = static_cast<std::size_t>(s) + h;
      return p < n_ ? rank_[p] + 1 : 0;
    };
    std::size_t tied = 0;
    std::size_t run = n_;  // the finished run that ends before j
    for (std::size_t j = 0; j < n_;) {
      if (tmp_[j] < 0) {
        const std::int32_t len = tmp_[j];
        if (run != n_) {
          tmp_[run] += len;
        } else {
          run = j;
        }
        j += static_cast<std::size_t>(-len);
        continue;
      }
      const auto last = static_cast<std::size_t>(rank_[sa_[j]]);
      sort_split(j, last + 1, key);
      // Commit: renumber the group's suffixes by the new groups; new
      // single-suffix groups join the finished run they follow.
      for (std::size_t start = j; j <= last; ++j) {
        const std::int32_t new_end = tmp_[j];
        rank_[sa_[j]] = new_end;
        if (static_cast<std::size_t>(new_end) != j) continue;
        if (start < j) {
          tied += j - start + 1;
          run = n_;
        } else if (run != n_) {
          --tmp_[run];
        } else {
          tmp_[j] = -1;
          run = j;
        }
        start = j + 1;
      }
    }
    return tied;
  }

  std::string_view text_;
  std::size_t n_;
  int bits_;
  int passes_;
  std::vector<std::int32_t> sa_;
  std::unique_ptr<std::int32_t[]> rank_;
  std::unique_ptr<std::int32_t[]> tmp_;
  /// sort_split's deferred parts, slots [lo, hi) each.
  struct Part {
    std::size_t lo;
    std::size_t hi;
  };
  std::array<Part, 64> waiting_{};
};

}  // namespace

std::vector<std::int32_t> build_suffix_array(std::string_view text,
                                             int alphabet) {
  if (text.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max() - 2)) {
    throw std::length_error("build_suffix_array: text too large for int32");
  }
  for (const char c : text) {
    if (static_cast<std::uint8_t>(c) >= alphabet) {
      throw std::invalid_argument("build_suffix_array: symbol out of range");
    }
  }
  if (text.empty()) return {};
  return SuffixSorter(text, alphabet).run();
}

std::vector<std::int32_t> build_suffix_array_parallel(const ConcatText& text,
                                                      exec::Pool& /*pool*/) {
  return build_suffix_array(text.text(), seq::kIndexAlphabetSize);
}

std::vector<std::int32_t> invert_suffix_array(
    const std::vector<std::int32_t>& sa) {
  std::vector<std::int32_t> rank(sa.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    rank[static_cast<std::size_t>(sa[i])] = static_cast<std::int32_t>(i);
  }
  return rank;
}

}  // namespace pclust::suffix
