// `pclust explain` — decision-level audit of a merge-provenance ledger.
//
//   pclust explain input.fa prov.jsonl --pair readA,readB
//       Why are these two sequences in the same family? Prints the unique
//       merge chain between them through the evidence forest.
//   pclust explain input.fa prov.jsonl --family 3 --clusters fams.tsv
//       What holds family 3 together? Prints its spanning evidence tree
//       summary with weak links (lowest-score bridges first) and hub
//       vertices whose removal fragments the family (fusion signature).
//
// All output is deterministic (the ledger is a canonical derivation and
// every ranking has a total order), so two invocations over the same
// inputs are byte-identical — check.sh relies on this.
#include <cstdio>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/prov/explain.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/options.hpp"

namespace pclust::cli {

namespace {

/// "name" (exact FASTA name) or a bare decimal SeqId.
seq::SeqId resolve_sequence(
    const std::string& token,
    const std::unordered_map<std::string, seq::SeqId>& by_name,
    std::size_t universe) {
  if (const auto it = by_name.find(token); it != by_name.end()) {
    return it->second;
  }
  if (!token.empty() &&
      token.find_first_not_of("0123456789") == std::string::npos) {
    const unsigned long long id = std::stoull(token);
    if (id < universe) return static_cast<seq::SeqId>(id);
  }
  throw UsageError("unknown sequence '" + token +
                   "' (not a FASTA name or a valid id)");
}

double identity_pct(const prov::Edge& e) {
  return e.columns == 0
             ? 0.0
             : 100.0 * static_cast<double>(e.matches) /
                   static_cast<double>(e.columns);
}

/// "ccd/overlap score=45 identity=61.4% (89/145)" — the human edge label.
std::string describe_edge(const prov::Edge& e) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s/%s score=%d identity=%.1f%% (%u/%u)",
                std::string(prov::phase_name(e.phase)).c_str(),
                std::string(prov::rule_name(e.rule)).c_str(), e.score,
                identity_pct(e), e.matches, e.columns);
  return buf;
}

void edge_to_json(util::JsonWriter& w, const prov::Edge& e) {
  w.key("phase").value(prov::phase_name(e.phase));
  w.key("rule").value(prov::rule_name(e.rule));
  w.key("score").value(static_cast<std::int64_t>(e.score));
  w.key("matches").value(static_cast<std::uint64_t>(e.matches));
  w.key("columns").value(static_cast<std::uint64_t>(e.columns));
  w.key("a_span").value(static_cast<std::uint64_t>(e.a_span));
  w.key("b_span").value(static_cast<std::uint64_t>(e.b_span));
}

int explain_pair(const prov::EvidenceForest& forest,
                 const seq::SequenceSet& set, seq::SeqId a, seq::SeqId b,
                 bool json) {
  const bool connected = forest.connected(a, b);
  const std::vector<std::uint32_t> chain =
      connected ? forest.path(a, b) : std::vector<std::uint32_t>{};
  if (json) {
    util::JsonWriter w;
    w.begin_object();
    w.key("schema").value("pclust-explain");
    w.key("version").value(1);
    w.key("mode").value("pair");
    w.key("a").begin_object().key("id").value(
        static_cast<std::uint64_t>(a));
    w.key("name").value(set.name(a)).end_object();
    w.key("b").begin_object().key("id").value(
        static_cast<std::uint64_t>(b));
    w.key("name").value(set.name(b)).end_object();
    w.key("connected").value(connected);
    w.key("chain").begin_array();
    std::uint32_t at = a;
    for (const std::uint32_t idx : chain) {
      const prov::Edge& e = forest.edge(idx);
      const std::uint32_t next = e.a == at ? e.b : e.a;
      w.begin_object();
      w.key("from").value(static_cast<std::uint64_t>(at));
      w.key("to").value(static_cast<std::uint64_t>(next));
      edge_to_json(w, e);
      w.end_object();
      at = next;
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  if (a == b) {
    std::printf("%s and %s are the same sequence (id %u)\n",
                set.name(a).c_str(), set.name(b).c_str(), a);
    return 0;
  }
  if (!connected) {
    std::printf(
        "no merge chain: %s (id %u) and %s (id %u) sit in different "
        "evidence trees — the pipeline never merged them\n",
        set.name(a).c_str(), a, set.name(b).c_str(), b);
    return 0;
  }
  std::printf("merge chain %s (id %u) -> %s (id %u), %zu edge%s:\n",
              set.name(a).c_str(), a, set.name(b).c_str(), b, chain.size(),
              chain.size() == 1 ? "" : "s");
  std::uint32_t at = a;
  for (const std::uint32_t idx : chain) {
    const prov::Edge& e = forest.edge(idx);
    const std::uint32_t next = e.a == at ? e.b : e.a;
    std::printf("  %s (id %u) --[%s]--> %s (id %u)\n", set.name(at).c_str(),
                at, describe_edge(e).c_str(), set.name(next).c_str(), next);
    at = next;
  }
  return 0;
}

int explain_family(const prov::EvidenceForest& forest,
                   const prov::Ledger& ledger, const seq::SequenceSet& set,
                   std::size_t index1,
                   const std::vector<std::vector<seq::SeqId>>& clustering,
                   std::size_t top, bool json) {
  if (index1 == 0 || index1 > clustering.size()) {
    throw UsageError("--family " + std::to_string(index1) +
                     " out of range (the clustering holds " +
                     std::to_string(clustering.size()) + " families)");
  }
  const std::vector<seq::SeqId>& members = clustering[index1 - 1];
  const prov::FamilyAudit audit = prov::audit_family(
      forest, ledger,
      std::vector<std::uint32_t>(members.begin(), members.end()));
  const std::size_t weak_shown =
      top == 0 ? audit.weak_links.size()
               : std::min(top, audit.weak_links.size());
  const std::size_t hubs_shown =
      top == 0 ? audit.hubs.size() : std::min(top, audit.hubs.size());
  if (json) {
    util::JsonWriter w;
    w.begin_object();
    w.key("schema").value("pclust-explain");
    w.key("version").value(1);
    w.key("mode").value("family");
    w.key("family").value(static_cast<std::uint64_t>(index1));
    w.key("members").begin_array();
    for (const seq::SeqId m : audit.members) {
      w.value(static_cast<std::uint64_t>(m));
    }
    w.end_array();
    w.key("connected").value(audit.connected);
    w.key("tree_edges")
        .value(static_cast<std::uint64_t>(audit.weak_links.size()));
    w.key("dsd_support").value(audit.dsd_support);
    w.key("steiner_vertices").begin_array();
    for (const std::uint32_t v : audit.steiner_vertices) {
      w.value(static_cast<std::uint64_t>(v));
    }
    w.end_array();
    w.key("weak_links").begin_array();
    for (std::size_t i = 0; i < weak_shown; ++i) {
      const prov::Edge& e = forest.edge(audit.weak_links[i]);
      w.begin_object();
      w.key("a").value(static_cast<std::uint64_t>(e.a));
      w.key("b").value(static_cast<std::uint64_t>(e.b));
      edge_to_json(w, e);
      w.end_object();
    }
    w.end_array();
    w.key("hubs").begin_array();
    for (std::size_t i = 0; i < hubs_shown; ++i) {
      const prov::Hub& h = audit.hubs[i];
      w.begin_object();
      w.key("seq").value(static_cast<std::uint64_t>(h.seq));
      w.key("name").value(set.name(h.seq));
      w.key("parts").value(static_cast<std::uint64_t>(h.parts));
      w.key("min_part").value(static_cast<std::uint64_t>(h.min_part));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("family %zu: %zu members\n", index1, audit.members.size());
  if (!audit.connected) {
    std::printf(
        "  WARNING: members span multiple evidence trees — the ledger does "
        "not match this clustering\n");
  }
  std::printf(
      "  evidence tree: %zu edges, %zu bridging non-member vertices\n",
      audit.weak_links.size(), audit.steiner_vertices.size());
  std::printf("  dsd corroboration: %llu shingle-merge edges\n",
              static_cast<unsigned long long>(audit.dsd_support));
  std::printf("  weak links (weakest first):\n");
  if (weak_shown == 0) std::printf("    none\n");
  for (std::size_t i = 0; i < weak_shown; ++i) {
    const prov::Edge& e = forest.edge(audit.weak_links[i]);
    std::printf("    %2zu. %s (id %u) -- %s (id %u)  %s\n", i + 1,
                set.name(e.a).c_str(), e.a, set.name(e.b).c_str(), e.b,
                describe_edge(e).c_str());
  }
  std::printf("  hubs (fusion signature):\n");
  if (hubs_shown == 0) std::printf("    none\n");
  for (std::size_t i = 0; i < hubs_shown; ++i) {
    const prov::Hub& h = audit.hubs[i];
    std::printf(
        "    %2zu. %s (id %u): removal splits the members into %u parts "
        "(smallest %u)\n",
        i + 1, set.name(h.seq).c_str(), h.seq, h.parts, h.min_part);
  }
  return 0;
}

}  // namespace

int cmd_explain(int argc, const char* const* argv) {
  util::Options options;
  options.define("pair", "",
                 "two sequences (names or ids) separated by a comma: print "
                 "the merge chain that put them in one family");
  options.define("family", "0",
                 "1-based family index (descending size, the order of "
                 "`families --out`): print its spanning evidence tree with "
                 "weak-link and hub rankings; requires --clusters");
  options.define("clusters", "",
                 "clustering file (from `families --out`) that defines the "
                 "family memberships for --family");
  options.define("top", "10",
                 "cap on the weak links / hubs printed (0 = all)");
  options.define_flag("json", "machine-readable audit (one JSON document)");
  options.define("on-bad-residue", "throw",
                 "invalid FASTA residue handling, MUST match the families "
                 "run that wrote the ledger (ids are FASTA-order): throw, "
                 "mask, or skip");
  options.parse(argc, argv);
  if (options.help_requested() || options.positionals().size() != 2) {
    std::fputs(options
                   .usage("pclust explain <input.fa> <provenance.jsonl>",
                          "Explain family formation from a merge-provenance "
                          "ledger (families --provenance-out): --pair "
                          "prints the merge chain between two sequences, "
                          "--family the spanning evidence of one family.")
                   .c_str(),
               stdout);
    return options.help_requested() ? 0 : 2;
  }
  const std::string pair = options.get("pair");
  const auto family =
      static_cast<std::size_t>(get_int_in(options, "family", 0, 1LL << 32));
  const std::string clusters = options.get("clusters");
  const auto top =
      static_cast<std::size_t>(get_int_in(options, "top", 0, 1LL << 32));
  const bool json = options.get_flag("json");
  if (pair.empty() == (family == 0)) {
    throw UsageError("exactly one of --pair or --family is required");
  }
  if (family != 0 && clusters.empty()) {
    throw UsageError("--family requires --clusters");
  }

  seq::FastaOptions fasta;
  fasta.on_bad_residue = get_bad_residue_policy(options);
  require_readable(options.positionals()[0]);
  require_readable(options.positionals()[1]);
  if (!clusters.empty()) require_readable(clusters);

  seq::SequenceSet set;
  seq::read_fasta_file(options.positionals()[0], set, fasta);
  const prov::Ledger ledger = prov::read_ledger(options.positionals()[1]);
  if (ledger.sequences != set.size()) {
    throw UsageError(
        "ledger was written for " + std::to_string(ledger.sequences) +
        " sequences but the FASTA holds " + std::to_string(set.size()) +
        " — wrong input file (or mismatched --on-bad-residue)?");
  }
  const prov::EvidenceForest forest(ledger);

  if (!pair.empty()) {
    const std::size_t comma = pair.find(',');
    if (comma == std::string::npos || comma == 0 ||
        comma + 1 == pair.size()) {
      throw UsageError("--pair wants two sequences separated by a comma");
    }
    std::unordered_map<std::string, seq::SeqId> by_name;
    by_name.reserve(set.size());
    for (seq::SeqId id = 0; id < set.size(); ++id) by_name[set.name(id)] = id;
    const seq::SeqId a =
        resolve_sequence(pair.substr(0, comma), by_name, set.size());
    const seq::SeqId b =
        resolve_sequence(pair.substr(comma + 1), by_name, set.size());
    return explain_pair(forest, set, a, b, json);
  }
  const std::vector<std::vector<seq::SeqId>> clustering =
      quality::read_clustering_file(clusters, set);
  return explain_family(forest, ledger, set, family, clustering, top, json);
}

}  // namespace pclust::cli
