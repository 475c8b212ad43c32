#include "pclust/util/memsize.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pclust::util {
namespace {

TEST(MemSize, BreakdownTotalsItsParts) {
  MemoryBreakdown b("widget");
  EXPECT_EQ(b.total(), 0u);
  b.add("nodes", 128).add("edges", 64);
  EXPECT_EQ(b.parts.size(), 2u);
  EXPECT_EQ(b.total(), 192u);
}

TEST(MemSize, NestedBreakdownFoldsToSinglePart) {
  MemoryBreakdown inner("inner");
  inner.add("a", 10).add("b", 30);
  MemoryBreakdown outer("outer");
  outer.add("payload", 5).add("inner", inner);
  EXPECT_EQ(outer.parts.size(), 2u);
  EXPECT_EQ(outer.total(), 45u);
}

TEST(MemSize, VectorBytesTracksCapacityNotSize) {
  std::vector<std::uint64_t> v;
  EXPECT_EQ(vector_bytes(v), 0u);
  v.reserve(100);
  v.push_back(1);
  // Capacity is what the allocator holds, regardless of size.
  EXPECT_EQ(vector_bytes(v), v.capacity() * sizeof(std::uint64_t));
  EXPECT_GE(vector_bytes(v), 100 * sizeof(std::uint64_t));
}

TEST(MemSize, StringBytesIgnoresSsoButCountsHeap) {
  // Small strings live in the object; a long one must show heap bytes at
  // least as large as its capacity.
  const std::string small = "ab";
  EXPECT_EQ(string_bytes(small), 0u);
  const std::string big(4096, 'x');
  EXPECT_GE(string_bytes(big), big.capacity());
}

TEST(MemSize, RssReadsProcAndPeakDominatesCurrent) {
  const std::uint64_t current = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  // /proc is present on the platforms we test on; a running process is
  // at least a page resident.
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current);
}

}  // namespace
}  // namespace pclust::util
