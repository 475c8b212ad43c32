#include "pclust/util/jsonl.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "scoped_temp_dir.hpp"

namespace pclust::util {
namespace {

class JsonlTest : public ::testing::Test {
 protected:
  void write(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary);
    out << bytes;
  }
  void append(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << bytes;
  }

  const test::ScopedTempDir dir_;
  const std::string path_ = (dir_ / "tail.jsonl").string();
};

TEST_F(JsonlTest, MissingFileIsNotAnError) {
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  EXPECT_FALSE(reader.poll(lines));
  EXPECT_TRUE(lines.empty());
}

TEST_F(JsonlTest, ReadsCompleteLinesAndSkipsBlanks) {
  write("{\"a\":1}\n\n{\"b\":2}\n");
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  EXPECT_TRUE(reader.poll(lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
}

TEST_F(JsonlTest, BuffersTornFinalLine) {
  write("{\"a\":1}\n{\"b\":");  // producer killed mid-record
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  EXPECT_TRUE(reader.poll(lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_TRUE(reader.has_partial_tail());
  EXPECT_EQ(reader.partial_tail(), "{\"b\":");
}

TEST_F(JsonlTest, SplicesTailWhenWriterFinishesTheLine) {
  write("{\"a\":1}\n{\"b\":");
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  (void)reader.poll(lines);
  lines.clear();

  append("2}\n{\"c\":3}\n");
  EXPECT_TRUE(reader.poll(lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"b\":2}");  // torn bytes surface exactly once
  EXPECT_EQ(lines[1], "{\"c\":3}");
  EXPECT_FALSE(reader.has_partial_tail());
}

TEST_F(JsonlTest, PollWithoutGrowthReturnsNothing) {
  write("{\"a\":1}\n");
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  (void)reader.poll(lines);
  lines.clear();
  EXPECT_TRUE(reader.poll(lines));
  EXPECT_TRUE(lines.empty());
}

TEST_F(JsonlTest, IncrementalAppendsSurfaceInOrder) {
  JsonlTailReader reader(path_);
  std::vector<std::string> all;
  write("");
  for (int i = 0; i < 5; ++i) {
    append("{\"n\":" + std::to_string(i) + "}\n");
    std::vector<std::string> lines;
    EXPECT_TRUE(reader.poll(lines));
    all.insert(all.end(), lines.begin(), lines.end());
  }
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)],
              "{\"n\":" + std::to_string(i) + "}");
  }
}

TEST_F(JsonlTest, TruncatedFileResetsTheReader) {
  write("{\"a\":1}\n{\"b\":2}\n");
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  (void)reader.poll(lines);
  lines.clear();

  write("{\"x\":9}\n");  // rotate: smaller than the consumed offset
  EXPECT_TRUE(reader.poll(lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"x\":9}");
}

TEST_F(JsonlTest, OffsetPointsAtStartOfBufferedTail) {
  write("abc\ndef");
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  (void)reader.poll(lines);
  EXPECT_EQ(reader.offset(), 4u);  // "abc\n" consumed, "def" buffered
  EXPECT_EQ(reader.partial_tail(), "def");
}

TEST_F(JsonlTest, CrlfTailsAreToleratedAsContent) {
  // The reader splits on '\n' only; a '\r' stays in the line (telemetry
  // never writes CRLF, but a reader must not corrupt foreign files).
  write("a\r\nb\n");
  JsonlTailReader reader(path_);
  std::vector<std::string> lines;
  (void)reader.poll(lines);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a\r");
  EXPECT_EQ(lines[1], "b");
}

}  // namespace
}  // namespace pclust::util
