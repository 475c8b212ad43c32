#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/quality/metrics.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/options.hpp"
#include "pclust/util/strings.hpp"

namespace pclust::cli {

namespace {

/// Look up phases[name] in a report; nullptr when absent.
const util::JsonValue* find_phase(const util::JsonValue& report,
                                  const std::string& name) {
  const util::JsonValue* phases = report.find("phases");
  if (!phases || !phases->is_array()) return nullptr;
  for (const util::JsonValue& phase : phases->array) {
    const util::JsonValue* n = phase.find("name");
    if (n && n->is_string() && n->as_string() == name) return &phase;
  }
  return nullptr;
}

void diff_number(const char* label, double a, double b, const char* unit) {
  const double delta = b - a;
  const double pct = a != 0.0 ? 100.0 * delta / a : 0.0;
  std::printf("  %-28s %14.6g %14.6g   %+.6g%s (%+.1f%%)\n", label, a, b,
              delta, unit, pct);
}

void diff_u64(const char* label, std::uint64_t a, std::uint64_t b) {
  std::printf("  %-28s %14llu %14llu   %+lld\n", label,
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b),
              static_cast<long long>(b) - static_cast<long long>(a));
}

std::uint64_t u64_at(const util::JsonValue& obj, const char* key) {
  const util::JsonValue* v = obj.find(key);
  return v && v->is_number() ? v->as_u64() : 0;
}

double num_at(const util::JsonValue& obj, const char* key) {
  const util::JsonValue* v = obj.find(key);
  return v && v->is_number() ? v->as_number() : 0.0;
}

/// `pclust compare --reports a.json b.json`: structured diff of two run
/// reports — phase times, alignment-work counters, and Table-I quantities.
int compare_reports(const std::string& path_a, const std::string& path_b) {
  const util::JsonValue a = load_json(path_a);
  const util::JsonValue b = load_json(path_b);
  std::string error;
  if (!pipeline::validate_report(a, &error)) {
    throw IoError(path_a + ": invalid run report: " + error);
  }
  if (!pipeline::validate_report(b, &error)) {
    throw IoError(path_b + ": invalid run report: " + error);
  }

  std::printf("run-report diff\n  A: %s\n  B: %s\n", path_a.c_str(),
              path_b.c_str());
  std::printf("\nphase times\n  %-28s %14s %14s   %s\n", "phase", "A (s)",
              "B (s)", "delta");
  for (const char* name : {"rr", "ccd", "bgg+dsd"}) {
    const util::JsonValue* pa = find_phase(a, name);
    const util::JsonValue* pb = find_phase(b, name);
    if (!pa || !pb) continue;
    diff_number(name, num_at(*pa, "seconds"), num_at(*pb, "seconds"), "s");
  }

  const util::JsonValue& align_a = a.at("alignment");
  const util::JsonValue& align_b = b.at("alignment");
  std::printf("\nalignment work\n  %-28s %14s %14s   %s\n", "counter", "A",
              "B", "delta");
  for (const char* key :
       {"candidate_pairs", "attempted", "skipped_by_cluster_filter",
        "duplicate_pairs"}) {
    diff_u64(key, u64_at(align_a, key), u64_at(align_b, key));
  }
  diff_number("skip_ratio", num_at(align_a, "skip_ratio"),
              num_at(align_b, "skip_ratio"), "");

  const util::JsonValue& t1_a = a.at("table1");
  const util::JsonValue& t1_b = b.at("table1");
  std::printf("\ntable 1\n  %-28s %14s %14s   %s\n", "quantity", "A", "B",
              "delta");
  for (const char* key :
       {"input_sequences", "non_redundant_sequences", "components_min_size",
        "dense_subgraph_count", "sequences_in_subgraphs",
        "largest_subgraph"}) {
    diff_u64(key, u64_at(t1_a, key), u64_at(t1_b, key));
  }
  diff_number("mean_degree", num_at(t1_a, "mean_degree"),
              num_at(t1_b, "mean_degree"), "");
  diff_number("mean_density", num_at(t1_a, "mean_density"),
              num_at(t1_b, "mean_density"), "");
  return 0;
}

}  // namespace

int cmd_compare(int argc, const char* const* argv) {
  util::Options options;
  options.define_flag("reports",
                      "diff two pclust run reports (from families "
                      "--report-out) instead of comparing clusterings");
  options.parse(argc, argv);
  const bool reports = options.get_flag("reports");
  const std::size_t want = reports ? 2 : 3;
  if (options.help_requested() || options.positionals().size() != want) {
    std::fputs(options
                   .usage("pclust compare <sequences.fa> <test.tsv> "
                          "<benchmark.tsv>\n"
                          "       pclust compare --reports <a.json> <b.json>",
                          "Pair-counting comparison of two clusterings "
                          "(paper §V, eqs. 1-4). Only sequences present in "
                          "both clusterings are scored. With --reports, "
                          "diff two structured run reports instead (phase "
                          "times, alignment counters, Table-I quantities).")
                   .c_str(),
               stdout);
    return options.help_requested() ? 0 : 2;
  }
  if (reports) {
    return compare_reports(options.positionals()[0],
                           options.positionals()[1]);
  }

  for (const std::string& path : options.positionals()) {
    require_readable(path);
  }

  seq::SequenceSet sequences;
  seq::read_fasta_file(options.positionals()[0], sequences);
  const auto test =
      quality::read_clustering_file(options.positionals()[1], sequences);
  const auto benchmark =
      quality::read_clustering_file(options.positionals()[2], sequences);
  const quality::Metrics m = quality::compare_clusterings(test, benchmark);

  std::printf("test: %zu clusters   benchmark: %zu clusters   common "
              "sequences: %zu\n",
              test.size(), benchmark.size(), m.common_sequences);
  std::printf("TP=%s TN=%s FP=%s FN=%s\n",
              util::with_commas(static_cast<long long>(m.counts.tp)).c_str(),
              util::with_commas(static_cast<long long>(m.counts.tn)).c_str(),
              util::with_commas(static_cast<long long>(m.counts.fp)).c_str(),
              util::with_commas(static_cast<long long>(m.counts.fn)).c_str());
  std::printf("PR=%.2f%%  SE=%.2f%%  OQ=%.2f%%  CC=%.2f%%\n",
              m.precision * 100.0, m.sensitivity * 100.0,
              m.overlap_quality * 100.0, m.correlation * 100.0);
  return 0;
}

}  // namespace pclust::cli
