#include "pclust/prov/ledger.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pclust/util/io.hpp"
#include "pclust/util/json.hpp"

namespace pclust::prov {

namespace {

constexpr std::string_view kPhaseNames[] = {"rr", "ccd", "dsd"};
constexpr std::string_view kRuleNames[] = {"containment", "overlap", "B_d",
                                           "B_m"};

[[noreturn]] void bad_line(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("provenance ledger line " +
                           std::to_string(line_no) + ": " + why);
}

std::uint32_t member_u32(const util::JsonValue& v, std::string_view name) {
  const util::JsonValue* m = v.find(name);
  if (!m || !m->is_number()) {
    throw std::runtime_error("missing numeric field '" + std::string(name) +
                             "'");
  }
  return static_cast<std::uint32_t>(m->as_u64());
}

/// Decode one edge object; throws std::runtime_error (no line context —
/// parse_ledger adds it).
Edge edge_from_json(const util::JsonValue& v) {
  Edge e;
  const util::JsonValue* phase = v.find("phase");
  const util::JsonValue* rule = v.find("rule");
  if (!phase || !phase->is_string() || !rule || !rule->is_string()) {
    throw std::runtime_error("missing phase/rule");
  }
  try {
    e.phase = phase_from_name(phase->as_string());
    e.rule = rule_from_name(rule->as_string());
  } catch (const std::invalid_argument& err) {
    throw std::runtime_error(err.what());
  }
  e.a = member_u32(v, "a");
  e.b = member_u32(v, "b");
  const util::JsonValue* score = v.find("score");
  if (!score || !score->is_number()) {
    throw std::runtime_error("missing numeric field 'score'");
  }
  e.score = static_cast<std::int32_t>(score->as_number());
  e.matches = member_u32(v, "matches");
  e.columns = member_u32(v, "columns");
  e.a_span = member_u32(v, "a_span");
  e.b_span = member_u32(v, "b_span");
  return e;
}

}  // namespace

std::string_view phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

std::string_view rule_name(Rule rule) {
  return kRuleNames[static_cast<std::size_t>(rule)];
}

Phase phase_from_name(std::string_view name) {
  for (std::size_t i = 0; i < 3; ++i) {
    if (kPhaseNames[i] == name) return static_cast<Phase>(i);
  }
  throw std::invalid_argument("unknown provenance phase '" +
                              std::string(name) + "' (use rr, ccd, or dsd)");
}

Rule rule_from_name(std::string_view name) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (kRuleNames[i] == name) return static_cast<Rule>(i);
  }
  throw std::invalid_argument("unknown provenance rule '" +
                              std::string(name) +
                              "' (use containment, overlap, B_d, or B_m)");
}

void Ledger::recount() {
  counts.rr_edges = counts.ccd_edges = counts.dsd_edges = 0;
  counts.rule_containment = counts.rule_overlap = 0;
  counts.rule_bd = counts.rule_bm = 0;
  for (const Edge& e : edges) {
    switch (e.phase) {
      case Phase::kRr: ++counts.rr_edges; break;
      case Phase::kCcd: ++counts.ccd_edges; break;
      case Phase::kDsd: ++counts.dsd_edges; break;
    }
    switch (e.rule) {
      case Rule::kContainment: ++counts.rule_containment; break;
      case Rule::kOverlap: ++counts.rule_overlap; break;
      case Rule::kBd: ++counts.rule_bd; break;
      case Rule::kBm: ++counts.rule_bm; break;
    }
  }
}

std::string render_edge(const Edge& e) {
  util::JsonWriter w;
  w.begin_object()
      .key("phase").value(phase_name(e.phase))
      .key("rule").value(rule_name(e.rule))
      .key("a").value(static_cast<std::uint64_t>(e.a))
      .key("b").value(static_cast<std::uint64_t>(e.b))
      .key("score").value(static_cast<std::int64_t>(e.score))
      .key("matches").value(static_cast<std::uint64_t>(e.matches))
      .key("columns").value(static_cast<std::uint64_t>(e.columns))
      .key("a_span").value(static_cast<std::uint64_t>(e.a_span))
      .key("b_span").value(static_cast<std::uint64_t>(e.b_span))
      .end_object();
  return w.str();
}

Edge parse_edge(std::string_view line) {
  util::JsonValue v;
  try {
    v = util::parse_json(line);
  } catch (const util::JsonError& err) {
    throw std::runtime_error(std::string("provenance edge: ") + err.what());
  }
  if (!v.is_object()) {
    throw std::runtime_error("provenance edge: not a JSON object");
  }
  try {
    return edge_from_json(v);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(std::string("provenance edge: ") + err.what());
  }
}

void write_counts(util::JsonWriter& w, const LedgerCounts& c) {
  w.key("edges").begin_object()
      .key("rr").value(c.rr_edges)
      .key("ccd").value(c.ccd_edges)
      .key("dsd").value(c.dsd_edges)
      .key("total").value(c.total_edges())
      .end_object();
  w.key("rules").begin_object()
      .key("containment").value(c.rule_containment)
      .key("overlap").value(c.rule_overlap)
      .key("B_d").value(c.rule_bd)
      .key("B_m").value(c.rule_bm)
      .end_object();
  w.key("merges").begin_object()
      .key("rr").value(c.rr_merges)
      .key("ccd").value(c.ccd_merges)
      .key("dsd").value(c.dsd_merges)
      .end_object();
  w.key("complete").value(c.identity_holds());
}

std::string render_ledger(const Ledger& ledger) {
  std::string out;
  {
    util::JsonWriter w;
    w.begin_object()
        .key("schema").value(kLedgerSchema)
        .key("version").value(kLedgerVersion)
        .key("sequences").value(ledger.sequences)
        .key("edges").value(static_cast<std::uint64_t>(ledger.edges.size()))
        .end_object();
    out += w.str();
    out += '\n';
  }
  for (const Edge& e : ledger.edges) {
    out += render_edge(e);
    out += '\n';
  }
  {
    util::JsonWriter w;
    w.begin_object().key("summary").begin_object();
    write_counts(w, ledger.counts);
    w.end_object().end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

void write_ledger(const std::string& path, const Ledger& ledger) {
  util::io::io().commit_file(util::io::ArtifactClass::kProvenance, path,
                            render_ledger(ledger));
}

Ledger parse_ledger(std::string_view bytes) {
  Ledger ledger;
  bool have_meta = false;
  bool have_summary = false;
  std::uint64_t declared_edges = 0;
  LedgerCounts declared;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    const std::string_view line =
        bytes.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? bytes.size() : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    util::JsonValue v;
    try {
      v = util::parse_json(line);
    } catch (const util::JsonError& err) {
      bad_line(line_no, err.what());
    }
    if (!v.is_object()) bad_line(line_no, "not a JSON object");
    if (!have_meta) {
      const util::JsonValue* schema = v.find("schema");
      if (!schema || !schema->is_string() ||
          schema->as_string() != kLedgerSchema) {
        bad_line(line_no, "missing or wrong schema (expected '" +
                              std::string(kLedgerSchema) + "')");
      }
      const util::JsonValue* version = v.find("version");
      if (!version || !version->is_number() ||
          static_cast<int>(version->as_number()) != kLedgerVersion) {
        bad_line(line_no, "unsupported ledger version");
      }
      ledger.sequences = v.at("sequences").as_u64();
      declared_edges = v.at("edges").as_u64();
      have_meta = true;
      continue;
    }
    if (const util::JsonValue* summary = v.find("summary")) {
      if (have_summary) bad_line(line_no, "duplicate summary line");
      const util::JsonValue& edges = summary->at("edges");
      const util::JsonValue& rules = summary->at("rules");
      const util::JsonValue& merges = summary->at("merges");
      declared.rr_edges = edges.at("rr").as_u64();
      declared.ccd_edges = edges.at("ccd").as_u64();
      declared.dsd_edges = edges.at("dsd").as_u64();
      declared.rule_containment = rules.at("containment").as_u64();
      declared.rule_overlap = rules.at("overlap").as_u64();
      declared.rule_bd = rules.at("B_d").as_u64();
      declared.rule_bm = rules.at("B_m").as_u64();
      declared.rr_merges = merges.at("rr").as_u64();
      declared.ccd_merges = merges.at("ccd").as_u64();
      declared.dsd_merges = merges.at("dsd").as_u64();
      have_summary = true;
      continue;
    }
    if (have_summary) bad_line(line_no, "edge after the summary line");
    try {
      ledger.edges.push_back(edge_from_json(v));
    } catch (const std::runtime_error& err) {
      bad_line(line_no, err.what());
    }
  }
  if (!have_meta) throw std::runtime_error("provenance ledger: empty file");
  if (!have_summary) {
    throw std::runtime_error("provenance ledger: missing summary line");
  }
  if (ledger.edges.size() != declared_edges) {
    throw std::runtime_error(
        "provenance ledger: meta declares " + std::to_string(declared_edges) +
        " edges, found " + std::to_string(ledger.edges.size()));
  }
  ledger.counts = declared;
  Ledger check = ledger;
  check.recount();
  if (check.counts.rr_edges != declared.rr_edges ||
      check.counts.ccd_edges != declared.ccd_edges ||
      check.counts.dsd_edges != declared.dsd_edges ||
      check.counts.rule_containment != declared.rule_containment ||
      check.counts.rule_overlap != declared.rule_overlap ||
      check.counts.rule_bd != declared.rule_bd ||
      check.counts.rule_bm != declared.rule_bm) {
    throw std::runtime_error(
        "provenance ledger: summary tallies do not match the edge list");
  }
  return ledger;
}

Ledger read_ledger(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read provenance ledger: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_ledger(buf.str());
}

}  // namespace pclust::prov
