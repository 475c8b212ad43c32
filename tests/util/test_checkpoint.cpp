#include "pclust/util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scoped_temp_dir.hpp"

namespace pclust::util {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  fs::path file(const char* name) const { return dir_ / name; }

  const test::ScopedTempDir dir_;
};

TEST_F(CheckpointTest, Crc32MatchesKnownVector) {
  // The classic IEEE check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST_F(CheckpointTest, RoundTripsEveryFieldType) {
  CheckpointWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-2.5e300);
  w.str("protein families");
  w.u8_vec({0, 1, 255});
  w.u32_vec({42, 0, 0xFFFFFFFFu});
  w.u64_vec({});
  write_checkpoint(file("t.ckpt"), 9, 3, w);

  std::uint32_t version = 0;
  CheckpointReader r = read_checkpoint(file("t.ckpt"), 9, 3, &version);
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -2.5e300);
  EXPECT_EQ(r.str(), "protein families");
  EXPECT_EQ(r.u8_vec(), (std::vector<std::uint8_t>{0, 1, 255}));
  EXPECT_EQ(r.u32_vec(), (std::vector<std::uint32_t>{42, 0, 0xFFFFFFFFu}));
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST_F(CheckpointTest, EveryCorruptByteIsDetected) {
  CheckpointWriter w;
  w.u64(123456789);
  w.str("payload under test");
  write_checkpoint(file("c.ckpt"), 2, 1, w);

  std::ifstream in(file("c.ckpt"), std::ios::binary);
  std::vector<char> original((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();

  for (std::size_t i = 0; i < original.size(); ++i) {
    std::vector<char> bytes = original;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x5A);
    std::ofstream out(file("c.ckpt"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    EXPECT_THROW((void)read_checkpoint(file("c.ckpt"), 2, 1), CheckpointError)
        << "flipped byte " << i << " was accepted";
    EXPECT_FALSE(checkpoint_valid(file("c.ckpt"), 2, 1));
  }
}

TEST_F(CheckpointTest, TruncationIsDetected) {
  CheckpointWriter w;
  w.u32_vec({1, 2, 3, 4, 5});
  write_checkpoint(file("t.ckpt"), 1, 1, w);
  const auto full_size = fs::file_size(file("t.ckpt"));
  for (const std::uintmax_t keep : {std::uintmax_t{0}, std::uintmax_t{10},
                                    full_size - 1}) {
    fs::resize_file(file("t.ckpt"), keep);
    EXPECT_THROW((void)read_checkpoint(file("t.ckpt"), 1, 1), CheckpointError)
        << "kept " << keep << " bytes";
    // restore for the next iteration
    CheckpointWriter again;
    again.u32_vec({1, 2, 3, 4, 5});
    write_checkpoint(file("t.ckpt"), 1, 1, again);
  }
}

TEST_F(CheckpointTest, WrongPhaseTagRejected) {
  CheckpointWriter w;
  w.u8(1);
  write_checkpoint(file("p.ckpt"), 3, 1, w);
  EXPECT_THROW((void)read_checkpoint(file("p.ckpt"), 4, 1), CheckpointError);
  EXPECT_TRUE(checkpoint_valid(file("p.ckpt"), 3, 1));
  EXPECT_FALSE(checkpoint_valid(file("p.ckpt"), 4, 1));
}

TEST_F(CheckpointTest, NewerPayloadVersionRejected) {
  CheckpointWriter w;
  w.u8(1);
  write_checkpoint(file("v.ckpt"), 3, 2, w);
  EXPECT_THROW((void)read_checkpoint(file("v.ckpt"), 3, 1), CheckpointError);
  EXPECT_NO_THROW((void)read_checkpoint(file("v.ckpt"), 3, 5));
}

TEST_F(CheckpointTest, MissingFileRejected) {
  EXPECT_THROW((void)read_checkpoint(file("absent.ckpt"), 1, 1),
               CheckpointError);
  EXPECT_FALSE(checkpoint_valid(file("absent.ckpt"), 1, 1));
}

TEST_F(CheckpointTest, ReaderOverrunThrows) {
  CheckpointWriter w;
  w.u32(1);
  write_checkpoint(file("o.ckpt"), 1, 1, w);
  CheckpointReader r = read_checkpoint(file("o.ckpt"), 1, 1);
  (void)r.u32();
  EXPECT_THROW((void)r.u32(), CheckpointError);
}

TEST_F(CheckpointTest, RewriteIsAtomicNoTmpResidue) {
  CheckpointWriter w1;
  w1.str("generation one");
  write_checkpoint(file("a.ckpt"), 1, 1, w1);
  CheckpointWriter w2;
  w2.str("generation two");
  write_checkpoint(file("a.ckpt"), 1, 1, w2);

  CheckpointReader r = read_checkpoint(file("a.ckpt"), 1, 1);
  EXPECT_EQ(r.str(), "generation two");
  // The tmp staging file must not be left behind.
  EXPECT_FALSE(fs::exists(file("a.ckpt.tmp")));
}

// ---- generation rotation + fault-tolerant recovery --------------------

TEST_F(CheckpointTest, KeepPreviousRotatesLastGoodGeneration) {
  CheckpointWriter g1;
  g1.str("generation one");
  write_checkpoint(file("r.ckpt"), 1, 1, g1, /*keep_previous=*/true);
  EXPECT_FALSE(fs::exists(checkpoint_backup_path(file("r.ckpt"))));

  CheckpointWriter g2;
  g2.str("generation two");
  write_checkpoint(file("r.ckpt"), 1, 1, g2, /*keep_previous=*/true);

  CheckpointReader primary = read_checkpoint(file("r.ckpt"), 1, 1);
  EXPECT_EQ(primary.str(), "generation two");
  CheckpointReader backup =
      read_checkpoint(checkpoint_backup_path(file("r.ckpt")), 1, 1);
  EXPECT_EQ(backup.str(), "generation one");
}

TEST_F(CheckpointTest, QuarantineMovesFileAside) {
  CheckpointWriter w;
  w.u32(7);
  write_checkpoint(file("q.ckpt"), 1, 1, w);
  const fs::path moved = quarantine_checkpoint(file("q.ckpt"));
  EXPECT_EQ(moved, checkpoint_quarantine_path(file("q.ckpt")));
  EXPECT_FALSE(fs::exists(file("q.ckpt")));
  EXPECT_TRUE(fs::exists(moved));
}

TEST_F(CheckpointTest, RecoverPrefersHealthyPrimary) {
  CheckpointWriter g1;
  g1.str("old");
  write_checkpoint(file("h.ckpt"), 1, 1, g1, true);
  CheckpointWriter g2;
  g2.str("new");
  write_checkpoint(file("h.ckpt"), 1, 1, g2, true);

  CheckpointRecovery rec = recover_checkpoint(file("h.ckpt"), 1, 1);
  ASSERT_TRUE(rec.reader.has_value());
  EXPECT_FALSE(rec.from_backup);
  EXPECT_TRUE(rec.events.empty());
  EXPECT_EQ(rec.reader->str(), "new");
}

TEST_F(CheckpointTest, RecoverRollsBackToBackupAndQuarantines) {
  CheckpointWriter g1;
  g1.str("last good");
  write_checkpoint(file("b.ckpt"), 1, 1, g1, true);
  CheckpointWriter g2;
  g2.str("doomed");
  write_checkpoint(file("b.ckpt"), 1, 1, g2, true);
  // Flip one payload byte of the primary.
  {
    std::fstream io(file("b.ckpt"),
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(30);
    char c = 0;
    io.seekg(30);
    io.get(c);
    io.seekp(30);
    io.put(static_cast<char>(c ^ 0x01));
  }

  CheckpointRecovery rec = recover_checkpoint(file("b.ckpt"), 1, 1);
  ASSERT_TRUE(rec.reader.has_value());
  EXPECT_TRUE(rec.from_backup);
  EXPECT_EQ(rec.reader->str(), "last good");
  EXPECT_TRUE(fs::exists(checkpoint_quarantine_path(file("b.ckpt"))));
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_NE(rec.events[0].find("quarantined"), std::string::npos);
  EXPECT_NE(rec.events[1].find("rolled back"), std::string::npos);
}

TEST_F(CheckpointTest, RecoverWithBothGenerationsDamagedMeansRecompute) {
  CheckpointWriter g1;
  g1.str("one");
  write_checkpoint(file("d.ckpt"), 1, 1, g1, true);
  CheckpointWriter g2;
  g2.str("two");
  write_checkpoint(file("d.ckpt"), 1, 1, g2, true);
  fs::resize_file(file("d.ckpt"), 5);
  fs::resize_file(checkpoint_backup_path(file("d.ckpt")), 5);

  CheckpointRecovery rec = recover_checkpoint(file("d.ckpt"), 1, 1);
  EXPECT_FALSE(rec.reader.has_value());
  EXPECT_GE(rec.events.size(), 2u);
  EXPECT_TRUE(fs::exists(checkpoint_quarantine_path(file("d.ckpt"))));
}

TEST_F(CheckpointTest, RecoverMissingFileIsSilentRecompute) {
  CheckpointRecovery rec = recover_checkpoint(file("nope.ckpt"), 1, 1);
  EXPECT_FALSE(rec.reader.has_value());
  EXPECT_TRUE(rec.events.empty());  // nothing to quarantine or roll back
}

TEST_F(CheckpointTest, DamageSweepNeverThrowsAndNeverYieldsWrongData) {
  // The corruption sweep of ISSUE satellite 3: for EVERY truncation length
  // and EVERY single-byte flip, recover_checkpoint must (a) not throw and
  // (b) either decline to resume or return the original payload bytes —
  // damage may cost a recompute but never produces wrong data.
  CheckpointWriter w;
  w.u64(0x1122334455667788ull);
  w.str("sweep payload");
  w.u32_vec({9, 8, 7});
  write_checkpoint(file("s.ckpt"), 6, 2, w);

  std::ifstream in(file("s.ckpt"), std::ios::binary);
  const std::vector<char> original((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();

  const auto rewrite = [&](const std::vector<char>& bytes) {
    std::ofstream out(file("s.ckpt"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto check_payload_if_resumed = [&](const char* what, std::size_t i) {
    CheckpointRecovery rec;
    EXPECT_NO_THROW(rec = recover_checkpoint(file("s.ckpt"), 6, 2))
        << what << " " << i;
    if (rec.reader.has_value()) {
      // Only header damage outside the CRC's reach can still resume; the
      // payload it returns must be byte-identical to what was written.
      EXPECT_EQ(rec.reader->u64(), 0x1122334455667788ull) << what << " " << i;
      EXPECT_EQ(rec.reader->str(), "sweep payload") << what << " " << i;
      EXPECT_EQ(rec.reader->u32_vec(), (std::vector<std::uint32_t>{9, 8, 7}))
          << what << " " << i;
    } else {
      EXPECT_TRUE(fs::exists(checkpoint_quarantine_path(file("s.ckpt"))))
          << what << " " << i;
      fs::remove(checkpoint_quarantine_path(file("s.ckpt")));
    }
  };

  for (std::size_t keep = 0; keep < original.size(); ++keep) {
    rewrite(std::vector<char>(original.begin(),
                              original.begin() +
                                  static_cast<std::ptrdiff_t>(keep)));
    CheckpointRecovery rec;
    EXPECT_NO_THROW(rec = recover_checkpoint(file("s.ckpt"), 6, 2))
        << "truncated to " << keep;
    EXPECT_FALSE(rec.reader.has_value()) << "truncated to " << keep;
    fs::remove(checkpoint_quarantine_path(file("s.ckpt")));
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80), char(0x5A)}) {
      std::vector<char> bytes = original;
      bytes[i] = static_cast<char>(bytes[i] ^ mask);
      rewrite(bytes);
      check_payload_if_resumed("flipped byte", i);
    }
  }
}

}  // namespace
}  // namespace pclust::util
