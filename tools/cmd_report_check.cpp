#include <cstdint>
#include <cstdio>

#include <fstream>
#include <sstream>
#include <string>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/options.hpp"

namespace pclust::cli {

int cmd_report_check(int argc, const char* const* argv) {
  util::Options options;
  options.define("min-ccd-skip-ratio", "-1",
                 "additionally require the CCD phase's skip_ratio to be at "
                 "least this value (the paper's >99.9 % cluster-filter "
                 "claim; -1 = no threshold)");
  options.parse(argc, argv);
  if (options.help_requested() || options.positionals().size() != 1) {
    std::fputs(options
                   .usage("pclust report-check <report.json>",
                          "Validate a structured run report (from families "
                          "--report-out): schema, phase provenance, the "
                          "alignment-work identity attempted + "
                          "skipped_by_cluster_filter == candidate_pairs, "
                          "degradation levers (action/phase enums), and the "
                          "merge-provenance identity (edges cover the final "
                          "partition's merges one-for-one).")
                   .c_str(),
               stdout);
    return options.help_requested() ? 0 : 2;
  }
  const double min_skip_ratio =
      get_double_in(options, "min-ccd-skip-ratio", -1.0, 1.0);

  const std::string& path = options.positionals()[0];
  require_readable(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();

  util::JsonValue report;
  try {
    report = util::parse_json(buffer.str());
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "report-check: %s: %s\n", path.c_str(), e.what());
    return kExitIo;
  }

  std::string error;
  if (!pipeline::validate_report(report, &error)) {
    std::fprintf(stderr, "report-check: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }

  if (min_skip_ratio >= 0.0) {
    const util::JsonValue* ccd = nullptr;
    for (const util::JsonValue& phase : report.at("phases").array) {
      if (phase.at("name").as_string() == "ccd") ccd = &phase;
    }
    if (!ccd || ccd->find("skip_ratio") == nullptr) {
      std::fprintf(stderr,
                   "report-check: %s: no ccd phase with a skip_ratio\n",
                   path.c_str());
      return 1;
    }
    const double ratio = ccd->at("skip_ratio").as_number();
    if (ratio < min_skip_ratio) {
      std::fprintf(stderr,
                   "report-check: %s: ccd skip_ratio %.6f below required "
                   "%.6f\n",
                   path.c_str(), ratio, min_skip_ratio);
      return 1;
    }
  }

  const util::JsonValue& alignment = report.at("alignment");
  std::uint64_t speculative = 0;
  for (const util::JsonValue& phase : report.at("phases").array) {
    if (const util::JsonValue* s = phase.find("speculative")) {
      speculative += s->as_u64();
    }
  }
  std::printf(
      "%s: valid run report (candidate_pairs=%llu attempted=%llu "
      "skipped=%llu speculative=%llu skip_ratio=%.6f)\n",
      path.c_str(),
      static_cast<unsigned long long>(
          alignment.at("candidate_pairs").as_u64()),
      static_cast<unsigned long long>(alignment.at("attempted").as_u64()),
      static_cast<unsigned long long>(
          alignment.at("skipped_by_cluster_filter").as_u64()),
      static_cast<unsigned long long>(speculative),
      alignment.at("skip_ratio").as_number());
  if (const util::JsonValue* degr = report.find("degradation")) {
    std::printf(
        "%s: degradation section valid (%zu lever event(s) within budget "
        "%llu bytes)\n",
        path.c_str(), degr->at("events").array.size(),
        static_cast<unsigned long long>(degr->at("budget_bytes").as_u64()));
  }
  if (const util::JsonValue* prov = report.find("provenance")) {
    std::printf(
        "%s: provenance section valid (%llu evidence edge(s), merge "
        "identity holds)\n",
        path.c_str(),
        static_cast<unsigned long long>(
            prov->at("edges").at("total").as_u64()));
  }
  return 0;
}

}  // namespace pclust::cli
