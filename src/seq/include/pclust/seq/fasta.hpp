// FASTA reading/writing for peptide sequences.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "pclust/seq/sequence_set.hpp"

namespace pclust::seq {

/// What to do with a residue character that cannot appear in a peptide at
/// all (digits, punctuation, stray bytes). Ambiguity codes (B, Z, J, U, O)
/// are NOT errors — the alphabet maps them to 'X' in every mode.
enum class BadResiduePolicy {
  kThrow = 0,   ///< reject the input (default; errors carry file:line)
  kMask,        ///< replace the character with 'X' and keep going
  kSkipRecord,  ///< drop the whole record containing the character
};

struct FastaOptions {
  BadResiduePolicy on_bad_residue = BadResiduePolicy::kThrow;
  /// Name used in error messages (and the parse-summary log line); set to
  /// the path by read_fasta_file.
  std::string source = "<stream>";
  /// Log a one-line parse summary (records/residues plus any lenient-mode
  /// repairs) at info level after parsing.
  bool log_summary = false;
};

/// What the parser did, for callers that want to surface repairs.
struct FastaStats {
  std::size_t records = 0;          ///< sequences appended to the set
  std::size_t residues = 0;         ///< residues appended to the set
  std::size_t masked_residues = 0;  ///< bad characters replaced by 'X'
  std::size_t skipped_records = 0;  ///< records dropped by kSkipRecord
};

/// Parse FASTA records from a stream into @p out. Header text up to the
/// first whitespace becomes the sequence name. Residue lines are
/// concatenated; blank lines are ignored. Throws std::runtime_error — with
/// the source name and 1-based line number — on a record with no residues,
/// residues before the first header, or (under BadResiduePolicy::kThrow) an
/// invalid residue character. Returns the number of sequences appended.
std::size_t read_fasta(std::istream& in, SequenceSet& out,
                       const FastaOptions& options = {},
                       FastaStats* stats = nullptr);

/// Convenience: read a FASTA file from disk. Throws on I/O failure
/// (message includes the path). @p options.source is overridden with the
/// path.
std::size_t read_fasta_file(const std::string& path, SequenceSet& out,
                            FastaOptions options = {},
                            FastaStats* stats = nullptr);

/// Write all sequences as FASTA with the given line width.
void write_fasta(std::ostream& out, const SequenceSet& set,
                 std::size_t line_width = 70);

/// Write all sequences to @p path as one atomic commit through the IoEnv
/// (artifact class `families`): a persistent failure throws
/// util::io::IoError and leaves no file behind.
void write_fasta_file(const std::string& path, const SequenceSet& set,
                      std::size_t line_width = 70);

}  // namespace pclust::seq
