#include "pclust/seq/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "pclust/seq/alphabet.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/log.hpp"
#include "pclust/util/strings.hpp"

namespace pclust::seq {

namespace {

std::string header_to_name(std::string_view header) {
  header.remove_prefix(1);  // '>'
  header = util::trim(header);
  const auto ws = header.find_first_of(" \t");
  if (ws != std::string_view::npos) header = header.substr(0, ws);
  return std::string(header);
}

[[noreturn]] void fail(const FastaOptions& options, std::size_t line_no,
                       const std::string& what) {
  throw std::runtime_error("FASTA: " + options.source + ":" +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

std::size_t read_fasta(std::istream& in, SequenceSet& out,
                       const FastaOptions& options, FastaStats* stats) {
  std::string line;
  std::string name;
  std::string ranks;  // encoded as we go, so bad chars are caught per line
  bool have_record = false;
  bool skip_record = false;
  std::size_t record_line = 0;  // line of the current record's header
  std::size_t added = 0;
  std::size_t line_no = 0;
  FastaStats local;

  const auto flush = [&] {
    if (!have_record) return;
    if (skip_record) {
      ++local.skipped_records;
      skip_record = false;
      name.clear();
      ranks.clear();
      return;
    }
    if (ranks.empty()) {
      fail(options, record_line, "record '" + name + "' has no residues");
    }
    local.residues += ranks.size();
    out.add_encoded(std::move(name), std::move(ranks));
    ++added;
    ++local.records;
    name.clear();
    ranks.clear();
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view text = util::trim(line);
    if (text.empty()) continue;
    if (text.front() == '>') {
      flush();
      name = header_to_name(text);
      if (name.empty()) name = "seq" + std::to_string(line_no);
      have_record = true;
      record_line = line_no;
    } else {
      if (!have_record) {
        fail(options, line_no, "residues before first header");
      }
      if (skip_record) continue;
      for (std::size_t col = 0; col < text.size(); ++col) {
        const std::uint8_t rank = char_to_rank(text[col]);
        if (rank != 0xFF) {
          ranks.push_back(static_cast<char>(rank));
          continue;
        }
        switch (options.on_bad_residue) {
          case BadResiduePolicy::kThrow:
            fail(options, line_no,
                 "invalid residue character '" + std::string(1, text[col]) +
                     "' (column " + std::to_string(col + 1) + ") in record '" +
                     name + "'");
          case BadResiduePolicy::kMask:
            ranks.push_back(static_cast<char>(kRankX));
            ++local.masked_residues;
            break;
          case BadResiduePolicy::kSkipRecord:
            skip_record = true;
            break;
        }
        if (skip_record) break;
      }
    }
  }
  flush();

  if (options.log_summary) {
    PCLUST_INFO << "FASTA: " << options.source << ": " << local.records
                << " sequences, " << local.residues << " residues"
                << (local.masked_residues > 0
                        ? ", " + std::to_string(local.masked_residues) +
                              " residues masked as X"
                        : "")
                << (local.skipped_records > 0
                        ? ", " + std::to_string(local.skipped_records) +
                              " records skipped"
                        : "");
  }
  if (stats) *stats = local;
  return added;
}

std::size_t read_fasta_file(const std::string& path, SequenceSet& out,
                            FastaOptions options, FastaStats* stats) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open FASTA file: " + path);
  options.source = path;
  return read_fasta(in, out, options, stats);
}

void write_fasta(std::ostream& out, const SequenceSet& set,
                 std::size_t line_width) {
  for (SeqId id = 0; id < set.size(); ++id) {
    out << '>' << set.name(id) << '\n';
    const std::string ascii = set.ascii(id);
    for (std::size_t pos = 0; pos < ascii.size(); pos += line_width) {
      out << std::string_view(ascii).substr(pos, line_width) << '\n';
    }
  }
}

void write_fasta_file(const std::string& path, const SequenceSet& set,
                      std::size_t line_width) {
  std::ostringstream out;
  write_fasta(out, set, line_width);
  util::io::io().commit_file(util::io::ArtifactClass::kFamilies, path,
                             out.str());
}

}  // namespace pclust::seq
