#include "pclust/shingle/minwise.hpp"

#include <algorithm>

#include "pclust/util/memsize.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::shingle {

namespace {

std::uint64_t canonical_value(std::span<const std::uint32_t> elements) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t e : elements) h = util::hash_combine(h, e);
  return h;
}

std::uint64_t permutation_key(std::uint64_t seed, std::uint32_t k) {
  // Odd multiplier per permutation; SplitMix expansion of (seed, k).
  util::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL));
  return sm.next() | 1ULL;
}

}  // namespace

void OwnerTable::clear() {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{0, 0});
  size_ = 0;
}

std::uint64_t OwnerTable::bytes() const { return util::vector_bytes(slots_); }

void OwnerTable::grow() {
  std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
  old.swap(slots_);
  for (const Slot& slot : old) {
    if (slot.owner != 0) find(slot.value) = slot;
  }
}

std::vector<std::uint64_t> permutation_keys(std::uint64_t seed,
                                            std::uint32_t c) {
  std::vector<std::uint64_t> keys(c);
  for (std::uint32_t k = 0; k < c; ++k) keys[k] = permutation_key(seed, k);
  return keys;
}

Sketch::Sketch(std::uint32_t s, std::span<const std::uint64_t> keys)
    : s_(s), keys_(keys) {}

std::span<const std::uint32_t> Sketch::select(
    std::span<const std::uint32_t> links, std::uint32_t perm) {
  if (links.size() == s_) {
    // Every permutation selects the whole set.
    elements_.assign(links.begin(), links.end());
  } else {
    // One pass over the links keeps the s smallest (hash, vertex) pairs in
    // a bounded max-heap: O(|links| log s) whatever s the CLI allows.
    const std::uint64_t key = keys_[perm];
    const auto rank = [key](std::uint32_t x) {
      return util::mix64((static_cast<std::uint64_t>(x) + 1) * key);
    };
    const auto by_hash = [](const Ranked& a, const Ranked& b) {
      return a.hash < b.hash;
    };
    smallest_.resize(s_);
    for (std::uint32_t i = 0; i < s_; ++i) {
      smallest_[i] = {rank(links[i]), links[i]};
    }
    std::make_heap(smallest_.begin(), smallest_.end(), by_hash);
    for (std::size_t i = s_; i < links.size(); ++i) {
      const std::uint64_t h = rank(links[i]);
      if (h >= smallest_.front().hash) continue;
      std::pop_heap(smallest_.begin(), smallest_.end(), by_hash);
      smallest_.back() = {h, links[i]};
      std::push_heap(smallest_.begin(), smallest_.end(), by_hash);
    }
    elements_.resize(s_);
    for (std::uint32_t i = 0; i < s_; ++i) elements_[i] = smallest_[i].vertex;
  }
  std::sort(elements_.begin(), elements_.end());
  return elements_;
}

std::span<const SketchEntry> Sketch::shingles(
    std::span<const std::uint32_t> links) {
  entries_.clear();
  if (s_ == 0 || links.size() < s_) return {};
  if (links.size() == s_) {
    // The whole set is one shingle, whichever permutation selects it.
    entries_.push_back({canonical_value(select(links, 0)), 0});
    return entries_;
  }
  // Permutations in order, so each value's first owner is the lowest
  // permutation that selects it.
  seen_.clear();
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    const std::uint64_t value = canonical_value(select(links, k));
    if (seen_.claim(value, k) == k) entries_.push_back({value, k});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              return a.value < b.value;
            });
  return entries_;
}

std::vector<Shingle> shingle_set(std::span<const std::uint32_t> links,
                                 std::uint32_t s, std::uint32_t c,
                                 std::uint64_t seed) {
  const auto keys = permutation_keys(seed, c);
  Sketch sketch(s, keys);
  std::vector<Shingle> out;
  for (const SketchEntry& e : sketch.shingles(links)) {
    const auto elements = sketch.select(links, e.perm);
    out.push_back({e.value, {elements.begin(), elements.end()}});
  }
  return out;
}

}  // namespace pclust::shingle
