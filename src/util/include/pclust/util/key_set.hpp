// KeySet — an open-addressed set of 64-bit keys: one flat slot array,
// linear probing, load at most 1/2, so a key costs 16–32 bytes where a
// node-based std::unordered_set costs about 35. The pair engine keeps its
// seen-set of pair keys in one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pclust::util {

class KeySet {
 public:
  /// Adds @p key; true iff it was not in the set yet.
  bool insert(std::uint64_t key) {
    if (key == 0) {  // 0 marks an empty slot, so key 0 is kept aside
      const bool added = !has_zero_;
      has_zero_ = true;
      size_ += added ? 1 : 0;
      return added;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::uint64_t& slot = find(key);
    if (slot == key) return false;
    slot = key;
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The slot array's footprint (the memory ledger's view of the set).
  [[nodiscard]] std::uint64_t bytes() const;

 private:
  /// The slot holding @p key (nonzero), or the empty slot where it belongs.
  std::uint64_t& find(std::uint64_t key) {
    // Fibonacci hashing spreads the (a << 32 | b) pair keys, whose low
    // bits alone would cluster, over the whole table.
    std::size_t i = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> shift_);
    const std::size_t mask = slots_.size() - 1;
    while (slots_[i] != 0 && slots_[i] != key) i = (i + 1) & mask;
    return slots_[i];
  }

  void grow();

  std::vector<std::uint64_t> slots_;  // 0 = empty; size a power of two
  unsigned shift_ = 64;               // 64 - log2(slots_.size())
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

}  // namespace pclust::util
