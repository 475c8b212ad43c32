#include "pclust/suffix/maximal_match.hpp"

#include <algorithm>

#include "pclust/exec/pool.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::suffix {

namespace {

/// Folds the stats of one enumeration into the process-wide registry on
/// every exit path (including early stops from the visitor).
struct StatsRecorder {
  const EnumerationStats& stats;
  ~StatsRecorder() {
    static util::Counter& visited =
        util::metrics().counter("suffix.nodes_visited");
    static util::Counter& skipped =
        util::metrics().counter("suffix.nodes_skipped_big");
    static util::Counter& pairs =
        util::metrics().counter("suffix.pairs_emitted");
    visited.add(stats.nodes_visited);
    skipped.add(stats.nodes_skipped_big);
    pairs.add(stats.pairs_emitted);
  }
};

struct Candidate {
  std::int32_t depth;
  std::int32_t lb;
  std::int32_t rb;
};

struct Leaf {
  seq::SeqId sequence;
  std::uint32_t offset;
  std::uint8_t left;
};

/// Bucket key of the suffix at SA position i: its first prefix_len symbols,
/// stopped early at a separator (short suffixes form their own buckets).
std::uint64_t bucket_key(const ConcatText& text,
                         const std::vector<std::int32_t>& sa, std::int32_t i,
                         std::uint32_t prefix_len) {
  std::uint64_t key = 0;
  const auto pos = static_cast<std::size_t>(sa[static_cast<std::size_t>(i)]);
  for (std::uint32_t d = 0; d < prefix_len; ++d) {
    const std::size_t p = pos + d;
    const std::uint8_t sym =
        (p < text.size()) ? text.at(p) : seq::kRankTerminator;
    key = key * (seq::kIndexAlphabetSize + 1) + sym + 1;
    if (sym >= seq::kRankSeparator) break;  // short suffix: stop the key
  }
  return key;
}

/// Bucket scan over SA ranks [lo, hi), appended to @p out. A bucket that
/// crosses hi comes out cut there (the pooled scan stitches such parts).
void scan_buckets(const ConcatText& text, const std::vector<std::int32_t>& sa,
                  std::uint32_t prefix_len, std::int32_t lo, std::int32_t hi,
                  std::vector<MaximalMatchEnumerator::Bucket>& out) {
  std::int32_t i = lo;
  while (i < hi) {
    const auto pos = static_cast<std::size_t>(sa[static_cast<std::size_t>(i)]);
    if (text.is_separator(pos)) {
      ++i;  // separator-led suffixes carry no matches
      continue;
    }
    const std::uint64_t key = bucket_key(text, sa, i, prefix_len);
    MaximalMatchEnumerator::Bucket b{i, i, 0};
    while (i < hi) {
      const auto p = static_cast<std::size_t>(sa[static_cast<std::size_t>(i)]);
      if (text.is_separator(p) || bucket_key(text, sa, i, prefix_len) != key) {
        break;
      }
      b.rb = i;
      b.weight += text.run_length(p);
      ++i;
    }
    out.push_back(b);
  }
}

}  // namespace

MaximalMatchEnumerator::MaximalMatchEnumerator(
    const ConcatText& text, const std::vector<std::int32_t>& sa,
    const std::vector<std::int32_t>& lcp, MaximalMatchParams params)
    : text_(&text), sa_(&sa), lcp_(&lcp), params_(params) {}

EnumerationStats MaximalMatchEnumerator::enumerate(
    std::int32_t range_lo, std::int32_t range_hi,
    const std::function<bool(const MaximalMatch&)>& visit) const {
  EnumerationStats stats;
  const StatsRecorder recorder{stats};
  if (sa_->empty() || range_hi < range_lo) return stats;
  const auto& sa = *sa_;
  const auto& lcp = *lcp_;
  const auto min_len = static_cast<std::int32_t>(params_.min_length);

  // Phase A: collect LCP-interval nodes of depth >= ψ inside the range.
  std::vector<Candidate> candidates;
  {
    struct Entry {
      std::int32_t depth;
      std::int32_t lb;
    };
    std::vector<Entry> stack;
    stack.push_back(Entry{0, range_lo});
    for (std::int32_t i = range_lo + 1; i <= range_hi + 1; ++i) {
      const std::int32_t cur =
          (i <= range_hi) ? lcp[static_cast<std::size_t>(i)] : 0;
      std::int32_t lb = i - 1;
      while (stack.back().depth > cur) {
        const Entry e = stack.back();
        stack.pop_back();
        if (e.depth >= min_len) {
          candidates.push_back(Candidate{e.depth, e.lb, i - 1});
        }
        lb = e.lb;
      }
      if (stack.back().depth < cur) stack.push_back(Entry{cur, lb});
    }
  }

  // Phase B: deepest-first, regenerate child blocks and emit cross-block
  // left-maximal pairs.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.depth != b.depth) return a.depth > b.depth;
              return a.lb < b.lb;
            });

  std::vector<Leaf> prev;
  std::vector<Leaf> block;
  for (const Candidate& c : candidates) {
    ++stats.nodes_visited;
    const auto occurrences = static_cast<std::uint32_t>(c.rb - c.lb + 1);
    if (params_.max_node_occurrences != 0 &&
        occurrences > params_.max_node_occurrences) {
      ++stats.nodes_skipped_big;
      continue;
    }

    prev.clear();
    block.clear();
    const auto make_leaf = [&](std::int32_t k) {
      const auto pos = static_cast<std::size_t>(sa[static_cast<std::size_t>(k)]);
      return Leaf{text_->sequence_at(pos), text_->offset_at(pos),
                  text_->left_char(pos)};
    };
    const auto flush_block = [&]() -> bool {
      for (const Leaf& x : block) {
        for (const Leaf& y : prev) {
          if (x.sequence == y.sequence) continue;
          // Left-maximal: different left residues, or either occurrence at
          // its sequence start (left char is a separator).
          if (x.left == y.left && x.left < seq::kRankSeparator) continue;
          MaximalMatch m;
          if (x.sequence < y.sequence) {
            m = MaximalMatch{x.sequence, y.sequence, x.offset, y.offset,
                             static_cast<std::uint32_t>(c.depth)};
          } else {
            m = MaximalMatch{y.sequence, x.sequence, y.offset, x.offset,
                             static_cast<std::uint32_t>(c.depth)};
          }
          ++stats.pairs_emitted;
          if (!visit(m)) return false;
        }
      }
      prev.insert(prev.end(), block.begin(), block.end());
      block.clear();
      return true;
    };

    block.push_back(make_leaf(c.lb));
    for (std::int32_t k = c.lb + 1; k <= c.rb; ++k) {
      if (lcp[static_cast<std::size_t>(k)] == c.depth) {
        if (!flush_block()) return stats;  // child boundary
      }
      block.push_back(make_leaf(k));
    }
    if (!flush_block()) return stats;
  }
  return stats;
}

std::vector<MaximalMatch> MaximalMatchEnumerator::all() const {
  std::vector<MaximalMatch> out;
  if (sa_->empty()) return out;
  enumerate(0, static_cast<std::int32_t>(sa_->size()) - 1,
            [&out](const MaximalMatch& m) {
              out.push_back(m);
              return true;
            });
  return out;
}

std::vector<MaximalMatchEnumerator::Bucket>
MaximalMatchEnumerator::prefix_buckets(std::uint32_t prefix_len) const {
  return prefix_buckets(prefix_len, exec::or_serial(nullptr));
}

std::vector<MaximalMatchEnumerator::Bucket>
MaximalMatchEnumerator::prefix_buckets(std::uint32_t prefix_len,
                                       exec::Pool& pool) const {
  const auto& sa = *sa_;
  const auto n = static_cast<std::int32_t>(sa.size());
  const auto key_of = [&](std::int32_t i) {
    return bucket_key(*text_, sa, i, prefix_len);
  };

  // Scan SA chunks independently; a bucket crossing a chunk boundary comes
  // out split into contiguous parts with the same key. Four chunks per lane
  // balance a pooled scan; one lane scans the whole array as one chunk.
  const std::size_t chunk_count =
      pool.size() > 1 ? 4 * static_cast<std::size_t>(pool.size()) : 1;
  const std::size_t per_chunk =
      (static_cast<std::size_t>(n) + chunk_count - 1) / chunk_count;
  std::vector<std::vector<Bucket>> parts(chunk_count);
  exec::parallel_for(pool, chunk_count, 1, [&](std::size_t chunk) {
    const auto lo = static_cast<std::int32_t>(chunk * per_chunk);
    const auto hi = std::min(n, static_cast<std::int32_t>((chunk + 1) *
                                                          per_chunk));
    scan_buckets(*text_, sa, prefix_len, lo, hi, parts[chunk]);
  });

  // Stitch: merge a chunk-leading bucket into the previous one only when
  // the SA ranges are contiguous AND the keys match. The serial scan never
  // produces adjacent same-key buckets without a separator-led gap between
  // them, so this undoes exactly the chunk-boundary splits.
  std::vector<Bucket> out;
  for (const auto& part : parts) {
    for (const Bucket& b : part) {
      if (!out.empty() && out.back().rb + 1 == b.lb &&
          key_of(out.back().lb) == key_of(b.lb)) {
        out.back().rb = b.rb;
        out.back().weight += b.weight;
      } else {
        out.push_back(b);
      }
    }
  }
  return out;
}

}  // namespace pclust::suffix
