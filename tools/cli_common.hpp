// Shared validation helpers and exit-code conventions for the pclust CLI.
//
// Exit codes:
//   0  success
//   1  unexpected runtime failure
//   2  usage error (bad flag value, missing argument)
//   3  I/O error (missing input, unwritable output, artifact write failure)
//   4  checkpoint mismatch (fingerprint/corruption on --resume)
//   5  resource exhaustion (--mem-budget exceeded despite degradation)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/options.hpp"

namespace pclust::cli {

inline constexpr int kExitUsage = 2;
inline constexpr int kExitIo = 3;
inline constexpr int kExitCheckpoint = 4;
inline constexpr int kExitResource = 5;

/// A command-line value failed validation; main() maps this to exit 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A required path is missing or not writable; main() maps this to exit 3.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws IoError unless @p path exists and is readable.
void require_readable(const std::string& path);

/// Reads and parses the JSON document at @p path (a run report or a bench
/// artifact). Throws IoError when the file is unreadable, or when it is
/// not valid JSON, as "<path>: <parse error>".
util::JsonValue load_json(const std::string& path);

/// Throws IoError unless @p path can be created/overwritten (its parent
/// directory exists and is writable — probed by opening for append).
void require_writable(const std::string& path);

/// --name as an integer in [min, max]; throws UsageError otherwise.
long long get_int_in(const util::Options& options, const std::string& name,
                     long long min, long long max);

/// --name as a double in [min, max]; throws UsageError otherwise.
double get_double_in(const util::Options& options, const std::string& name,
                     double min, double max);

/// Parses a byte size with an optional k/m/g suffix (binary units), e.g.
/// "512m" -> 536870912, "2g", "1048576". Throws UsageError (naming
/// --@p flag) on junk or a zero/negative size.
std::uint64_t parse_mem_size(const std::string& text, const char* flag);

/// --on-bad-residue (throw, mask or skip) as a FASTA policy; throws
/// UsageError otherwise.
seq::BadResiduePolicy get_bad_residue_policy(const util::Options& options);

/// Parses "rank@value" pairs from a comma-separated list, e.g.
/// "1@5.0,3@12" -> {(1, 5.0), (3, 12.0)}. Empty input -> empty list.
/// Throws UsageError (naming --@p flag) on malformed entries.
std::vector<std::pair<int, double>> parse_rank_at(const std::string& text,
                                                  const char* flag);

/// The fault plans of the two simulated PaCE phases.
struct PaceFaultPlans {
  /// --crash, --straggle, --drop and --dup: RR always runs flat, so it
  /// has no sub-masters to fault.
  mpsim::FaultPlan rr;
  /// All six flags: CCD hosts the sub-master tier under --masters >= 2.
  mpsim::FaultPlan ccd;
};

/// Parses the simulated-machine fault options that `families` and
/// `simulate` both define (--crash, --submaster-crash,
/// --submaster-straggle, --straggle, --drop, --dup) into one plan per
/// phase, for a CCD protocol with @p masters master ranks. Throws
/// UsageError on a malformed or unsurvivable entry (crashing the master,
/// or a sub-master fault without --masters >= 2). The caller sets the
/// plans' seed (each command keeps its own --fault-seed default and range)
/// and validates each plan against its phase's layout: RR's is flat.
PaceFaultPlans parse_fault_plan(const util::Options& options, int masters);

/// Defines the shared --simd option (auto|avx2|sse2|off) on @p options.
void define_simd_option(util::Options& options);

/// Applies --simd: parses the value (UsageError on junk), clamps to the
/// host's capability, and logs the ISA the alignment kernels will use.
void apply_simd_option(const util::Options& options);

}  // namespace pclust::cli
