#include "pclust/seq/fasta.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "pclust/util/io.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::seq {
namespace {

TEST(Fasta, ParseBasic) {
  std::istringstream in(">s1 description text\nACDE\nFGH\n>s2\nMMM\n");
  SequenceSet set;
  EXPECT_EQ(read_fasta(in, set), 2u);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.name(0), "s1");  // description dropped
  EXPECT_EQ(set.ascii(0), "ACDEFGH");
  EXPECT_EQ(set.ascii(1), "MMM");
}

TEST(Fasta, BlankLinesIgnored) {
  std::istringstream in("\n>s\n\nAC\n\nDE\n\n");
  SequenceSet set;
  read_fasta(in, set);
  EXPECT_EQ(set.ascii(0), "ACDE");
}

TEST(Fasta, WindowsLineEndings) {
  std::istringstream in(">s\r\nACDE\r\n");
  SequenceSet set;
  read_fasta(in, set);
  EXPECT_EQ(set.ascii(0), "ACDE");
}

TEST(Fasta, ResiduesBeforeHeaderThrow) {
  std::istringstream in("ACDE\n>s\nAC\n");
  SequenceSet set;
  EXPECT_THROW(read_fasta(in, set), std::runtime_error);
}

TEST(Fasta, EmptyRecordThrows) {
  std::istringstream in(">s1\n>s2\nAC\n");
  SequenceSet set;
  EXPECT_THROW(read_fasta(in, set), std::runtime_error);
}

TEST(Fasta, EmptyStreamAddsNothing) {
  std::istringstream in("");
  SequenceSet set;
  EXPECT_EQ(read_fasta(in, set), 0u);
  EXPECT_TRUE(set.empty());
}

TEST(Fasta, RoundTripThroughWrite) {
  SequenceSet set;
  set.add("alpha", "ACDEFGHIKLMNPQRSTVWY");
  set.add("beta", std::string(150, 'W'));
  std::ostringstream out;
  write_fasta(out, set, 60);

  std::istringstream in(out.str());
  SequenceSet round;
  read_fasta(in, round);
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round.name(0), "alpha");
  EXPECT_EQ(round.ascii(0), set.ascii(0));
  EXPECT_EQ(round.ascii(1), set.ascii(1));
}

TEST(Fasta, LineWidthRespected) {
  SequenceSet set;
  set.add("s", std::string(25, 'A'));
  std::ostringstream out;
  write_fasta(out, set, 10);
  EXPECT_EQ(out.str(), ">s\nAAAAAAAAAA\nAAAAAAAAAA\nAAAAA\n");
}

TEST(Fasta, MissingFileThrows) {
  SequenceSet set;
  EXPECT_THROW(read_fasta_file("/nonexistent/path.fa", set),
               std::runtime_error);
}

TEST(Fasta, InvalidResidueThrowsWithSourceLineAndColumn) {
  std::istringstream in(">ok\nACDE\n>broken\nAC1E\n");
  SequenceSet set;
  FastaOptions options;
  options.source = "input.fa";
  try {
    read_fasta(in, set, options);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("input.fa:4"), std::string::npos) << what;
    EXPECT_NE(what.find("'1'"), std::string::npos) << what;
    EXPECT_NE(what.find("column 3"), std::string::npos) << what;
    EXPECT_NE(what.find("broken"), std::string::npos) << what;
  }
}

TEST(Fasta, MaskPolicyReplacesBadResiduesWithX) {
  std::istringstream in(">s1\nAC1E\n>s2\nMM#M\n");
  SequenceSet set;
  FastaOptions options;
  options.on_bad_residue = BadResiduePolicy::kMask;
  FastaStats stats;
  EXPECT_EQ(read_fasta(in, set, options, &stats), 2u);
  EXPECT_EQ(set.ascii(0), "ACXE");
  EXPECT_EQ(set.ascii(1), "MMXM");
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.masked_residues, 2u);
  EXPECT_EQ(stats.skipped_records, 0u);
}

TEST(Fasta, SkipPolicyDropsOnlyTheBadRecord) {
  std::istringstream in(">good1\nACDE\n>bad\nAC?E\nMORE\n>good2\nMMM\n");
  SequenceSet set;
  FastaOptions options;
  options.on_bad_residue = BadResiduePolicy::kSkipRecord;
  FastaStats stats;
  EXPECT_EQ(read_fasta(in, set, options, &stats), 2u);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.name(0), "good1");
  EXPECT_EQ(set.name(1), "good2");
  EXPECT_EQ(stats.skipped_records, 1u);
  EXPECT_EQ(stats.records, 2u);
}

TEST(Fasta, AmbiguityCodesAreValidNotMasked) {
  // B, Z, J, U, O map to the X rank in every policy — they are legitimate
  // (if ambiguous) residue codes, not errors.
  std::istringstream in(">s\nBZJUO\n");
  SequenceSet set;
  FastaStats stats;
  read_fasta(in, set, {}, &stats);  // default kThrow must not throw
  EXPECT_EQ(set.ascii(0), "XXXXX");
  EXPECT_EQ(stats.masked_residues, 0u);
}

TEST(Fasta, ErrorMessagesCarrySourceForStructuralProblems) {
  FastaOptions options;
  options.source = "weird.fa";
  {
    std::istringstream in("ACDE\n");
    SequenceSet set;
    try {
      read_fasta(in, set, options);
      FAIL() << "expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("weird.fa:1"), std::string::npos);
    }
  }
  {
    std::istringstream in(">empty\n>next\nAC\n");
    SequenceSet set;
    try {
      read_fasta(in, set, options);
      FAIL() << "expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("weird.fa:1"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
    }
  }
}

TEST(Fasta, SkippedRecordAtEndOfFileIsCounted) {
  std::istringstream in(">good\nACDE\n>bad\nA@C\n");
  SequenceSet set;
  FastaOptions options;
  options.on_bad_residue = BadResiduePolicy::kSkipRecord;
  FastaStats stats;
  EXPECT_EQ(read_fasta(in, set, options, &stats), 1u);
  EXPECT_EQ(stats.skipped_records, 1u);
}

TEST(Fasta, TruncatedAfterHeaderThrowsStructuredError) {
  // A file killed mid-write right after a header must be rejected loudly
  // (dangling record), not parsed as an empty sequence.
  std::istringstream in(">s1\nACDE\n>s2\n");
  SequenceSet set;
  FastaOptions options;
  options.source = "sample.fa";
  try {
    (void)read_fasta(in, set, options);
    FAIL() << "dangling record was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sample.fa"), std::string::npos);
    EXPECT_NE(what.find("no residues"), std::string::npos);
    EXPECT_NE(what.find("s2"), std::string::npos);
  }
}

TEST(Fasta, TruncationSweepNeverCrashesOrInventsRecords) {
  // Every byte-prefix of a valid FASTA file either parses (as a prefix of
  // its records — truncation can shorten the LAST record's residues but
  // never invent a record or corrupt an earlier one) or throws the
  // structured parse error. Nothing else: no crash, no silent garbage.
  const std::string full = ">alpha\nACDEFG\nHIKL\n>beta\nMNPQ\n>gamma\nRSTVWY\n";
  for (std::size_t keep = 0; keep <= full.size(); ++keep) {
    std::istringstream in(full.substr(0, keep));
    SequenceSet set;
    FastaOptions options;
    options.source = "trunc.fa";
    try {
      const std::size_t added = read_fasta(in, set, options);
      ASSERT_LE(added, 3u) << "keep=" << keep;
      ASSERT_EQ(added, set.size()) << "keep=" << keep;
      // Fully-covered earlier records must be intact.
      if (set.size() >= 1 && keep >= full.find(">beta")) {
        EXPECT_EQ(set.name(0), "alpha") << "keep=" << keep;
        EXPECT_EQ(set.ascii(0), "ACDEFGHIKL") << "keep=" << keep;
      }
      if (set.size() >= 2 && keep >= full.find(">gamma")) {
        EXPECT_EQ(set.ascii(1), "MNPQ") << "keep=" << keep;
      }
    } catch (const std::runtime_error& e) {
      // Acceptable outcome: the structured error, attributed to the file.
      EXPECT_NE(std::string(e.what()).find("trunc.fa"), std::string::npos)
          << "keep=" << keep;
    }
  }
}

TEST(Fasta, WriteFailureThrowsAndLeavesNoFile) {
  // Generated FASTA is committed through the IoEnv like every durable
  // artifact: a write that keeps failing raises IoError and leaves neither
  // the target nor its temporary behind.
  SequenceSet set;
  set.add("s1", "ACDEFGHIK");
  const test::ScopedTempDir dir;
  const std::filesystem::path path = dir / "out.fa";
  util::io::io().configure(
      util::io::IoFaultPlan::parse("families:enospc@1:sticky"));
  EXPECT_THROW(write_fasta_file(path.string(), set), util::io::IoError);
  util::io::io().reset();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

}  // namespace
}  // namespace pclust::seq
