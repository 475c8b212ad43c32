#include "pclust/util/key_set.hpp"

#include <bit>

#include "pclust/util/memsize.hpp"

namespace pclust::util {

std::uint64_t KeySet::bytes() const { return vector_bytes(slots_); }

void KeySet::grow() {
  std::vector<std::uint64_t> old(slots_.empty() ? 64 : 2 * slots_.size());
  old.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  for (const std::uint64_t key : old) {
    if (key != 0) find(key) = key;
  }
}

}  // namespace pclust::util
