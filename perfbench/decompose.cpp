// The traced run: pipeline::run's serial path (processors = 0,
// dsd_processors = 0, no resume, no masking), called phase by phase through
// the library's public functions so that every call gets its own span and
// registry delta. Checkpoint and sidecar payloads keep the pipeline's
// layout (fingerprint fields are written as zero), so the bytes written
// match what pipeline::run writes.
#include <filesystem>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/pace/provenance.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/util/checkpoint.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"

namespace perfbench {

namespace {

using namespace pc;
namespace fs = std::filesystem;

// pipeline.cpp's checkpoint tags and payload version.
constexpr std::uint32_t kTagRr = 1;
constexpr std::uint32_t kTagCcdPartial = 2;
constexpr std::uint32_t kTagCcd = 3;
constexpr std::uint32_t kTagFamilies = 4;
constexpr std::uint32_t kPayloadV3 = 3;

util::CheckpointWriter payload(double seconds) {
  util::CheckpointWriter w;
  w.u64(0);  // fingerprint
  w.f64(seconds);
  w.u32(1);  // masters
  return w;
}

void write_ckpt(const fs::path& path, std::uint32_t tag,
                const util::CheckpointWriter& w) {
  util::write_checkpoint(path, tag, kPayloadV3, w, /*keep_previous=*/true);
}

void commit_sidecar(const fs::path& path, std::string_view phase,
                    std::uint64_t merges, const std::vector<prov::Edge>& edges) {
  util::JsonWriter w;
  w.begin_object()
      .key("schema").value("pclust-provenance-sidecar")
      .key("version").value(1)
      .key("phase").value(phase)
      .key("fingerprint").value("0000000000000000")
      .key("result").value("0000000000000000")
      .key("merges").value(merges)
      .key("edges").value(static_cast<std::uint64_t>(edges.size()))
      .end_object();
  std::string bytes = w.str();
  bytes += '\n';
  for (const prov::Edge& e : edges) {
    bytes += prov::render_edge(e);
    bytes += '\n';
  }
  util::io::io().commit_file(util::io::ArtifactClass::kProvenance, path,
                             bytes);
}

/// A span plus the registry movement across it.
struct Probe {
  Probe(Tracer& tracer, std::string name)
      : scope(tracer, std::move(name)), before(util::metrics().snapshot()) {}
  [[nodiscard]] util::MetricsSnapshot delta() const {
    return util::metrics().snapshot().delta_since(before);
  }
  Tracer::Scope scope;
  util::MetricsSnapshot before;
};

void add_engine(LayerCounts& counts, const std::string& phase,
                const pace::EngineCounters& k) {
  counts.add(phase + ".attempted", static_cast<double>(k.aligned_pairs));
  counts.add(phase + ".skipped", static_cast<double>(k.filtered_pairs));
  counts.add(phase + ".candidates",
             static_cast<double>(k.promising_pairs - k.duplicate_pairs));
}

}  // namespace

pipeline::PipelineResult decompose(const seq::SequenceSet& set,
                                   const pipeline::PipelineConfig& cfg,
                                   Tracer& tracer, LayerCounts& counts) {
  const Probe run(tracer, "pipeline");
  pipeline::PipelineResult result;
  result.input_sequences = set.size();
  const bool want_prov = cfg.provenance;
  const bool ckpt = !cfg.checkpoint_dir.empty();
  const fs::path dir(cfg.checkpoint_dir);

  std::optional<exec::Pool> pool;
  exec::Pool* pool_arg = nullptr;
  {
    const Tracer::Scope s(tracer, "setup");
    util::governor().configure(cfg.mem_budget_bytes);
    pool.emplace(cfg.threads);
    if (pool->size() > 1) pool_arg = &*pool;
    if (ckpt) fs::create_directories(dir);
  }

  // ---- RR ------------------------------------------------------------------
  util::governor().set_phase("rr");
  {
    const Probe p(tracer, "rr");
    pace::PaceParams rr_params = cfg.pace;
    rr_params.band = cfg.rr_band;
    rr_params.phase_label = "rr";
    rr_params.masters = 1;
    result.rr = pace::remove_redundant_serial(set, rr_params, pool_arg);
    result.rr_seconds = p.scope.elapsed();
    add_engine(counts, "rr", result.rr.counters);
    counts.add("rr.removed", static_cast<double>(result.rr.removed_count()));
    counts.add("rr.simd_batches",
               static_cast<double>(p.delta().counter("align.batches")));
  }
  if (ckpt) {
    const Tracer::Scope s(tracer, "ckpt");
    util::CheckpointWriter w = payload(result.rr_seconds);
    w.u8_vec(result.rr.removed);
    w.u32_vec(std::vector<std::uint32_t>(result.rr.container.begin(),
                                         result.rr.container.end()));
    write_ckpt(dir / "rr.ckpt", kTagRr, w);
  }
  std::vector<prov::Edge> rr_edges;
  std::vector<prov::Edge> ccd_edges;
  std::vector<prov::Edge> dsd_edges;
  if (want_prov) {
    {
      const Tracer::Scope s(tracer, "prov.derive");
      rr_edges = pace::derive_rr_provenance(set, result.rr, cfg.pace);
    }
    if (ckpt) {
      const Tracer::Scope s(tracer, "prov.io");
      commit_sidecar(dir / "rr.prov.jsonl", "rr", result.rr.removed_count(),
                     rr_edges);
    }
  }
  // The pipeline's phase log and per-phase RSS gauges, which the run report
  // reads.
  const auto phase_done = [&](const char* phase, const char* rss_gauge) {
    if (ckpt) result.phase_log.push_back(std::string(phase) + ":computed");
    util::metrics().gauge(rss_gauge).set(util::current_rss_bytes());
  };
  phase_done("rr", "mem.rss.rr");
  const std::vector<seq::SeqId> survivors = result.rr.survivors();
  result.non_redundant_sequences = survivors.size();

  // ---- CCD -----------------------------------------------------------------
  util::governor().set_phase("ccd");
  {
    const Probe p(tracer, "ccd");
    pace::PaceParams ccd_params = cfg.pace;
    ccd_params.phase_label = "ccd";
    const std::uint64_t stride = ckpt ? cfg.ccd_checkpoint_stride : 0;
    std::function<void(const pace::CcdProgress&)> on_checkpoint;
    if (stride > 0) {
      on_checkpoint = [&](const pace::CcdProgress& progress) {
        const Tracer::Scope s(tracer, "ckpt");
        util::CheckpointWriter w = payload(p.scope.elapsed());
        w.u32_vec(progress.parents);
        w.u64(progress.next_pair);
        write_ckpt(dir / "ccd_partial.ckpt", kTagCcdPartial, w);
      };
    }
    std::function<void(const pace::Verdict&)> on_merge;
    if (want_prov) {
      on_merge = [&ccd_edges](const pace::Verdict& v) {
        ccd_edges.push_back(pace::ccd_edge_from_verdict(v));
      };
    }
    result.ccd = pace::detect_components_serial(set, survivors, ccd_params,
                                                pool_arg, nullptr, stride,
                                                on_checkpoint, on_merge);
    result.ccd_seconds = p.scope.elapsed();
    add_engine(counts, "ccd", result.ccd.counters);
    const util::MetricsSnapshot d = p.delta();
    counts.add("ccd.uf_merges",
               static_cast<double>(d.counter("ccd.uf_merges")));
    counts.add("ccd.simd_batches",
               static_cast<double>(d.counter("align.batches")));
  }
  if (ckpt) {
    const Tracer::Scope s(tracer, "ckpt");
    util::CheckpointWriter w = payload(result.ccd_seconds);
    w.u64(result.ccd.components.size());
    for (const auto& component : result.ccd.components) {
      w.u32_vec(std::vector<std::uint32_t>(component.begin(), component.end()));
    }
    write_ckpt(dir / "ccd.ckpt", kTagCcd, w);
    std::error_code ec;
    fs::remove(dir / "ccd_partial.ckpt", ec);
    fs::remove(util::checkpoint_backup_path(dir / "ccd_partial.ckpt"), ec);
  }
  if (want_prov && ckpt) {
    const Tracer::Scope s(tracer, "prov.io");
    commit_sidecar(dir / "ccd.prov.jsonl", "ccd",
                   survivors.size() - result.ccd.components.size(), ccd_edges);
  }
  {
    const Tracer::Scope s(tracer, "fold");
    static util::SizeHistogram& sizes =
        util::metrics().histogram("ccd.component_size");
    for (const auto& component : result.ccd.components) {
      sizes.add(component.size());
    }
    result.components_min_size =
        result.ccd.count_with_min_size(cfg.min_component);
  }
  phase_done("ccd", "mem.rss.ccd");

  // ---- BGG -----------------------------------------------------------------
  util::governor().set_phase("bgg+dsd");
  const double bgg_dsd_start = now_seconds();
  std::vector<bigraph::ComponentGraph> graphs;
  util::MemoryCharge graphs_charge;
  {
    const Probe p(tracer, "bgg");
    for (const auto& component : result.ccd.components) {
      if (component.size() < cfg.min_component) continue;
      const double t0 = now_seconds();
      if (cfg.reduction == bigraph::Reduction::kDuplicate) {
        bigraph::BdParams bd;
        bd.pace = cfg.pace;
        graphs.push_back(bigraph::build_bd(set, component, bd));
      } else {
        graphs.push_back(bigraph::build_bm(set, component, cfg.bm));
      }
      counts.max("bgg.max_graph_s", now_seconds() - t0);
      const bigraph::ComponentGraph& g = graphs.back();
      graphs_charge.add("bgg.graphs", g.graph.memory_usage().total() +
                                          util::vector_bytes(g.members) +
                                          util::vector_bytes(g.words));
      counts.add("bgg.aligned_pairs", static_cast<double>(g.aligned_pairs));
      counts.add("bgg.cells", static_cast<double>(g.alignment_cells));
      counts.add("bgg.edges", static_cast<double>(g.graph.edge_count()));
    }
    counts.add("bgg.simd_batches",
               static_cast<double>(p.delta().counter("align.batches")));
  }

  // ---- DSD -----------------------------------------------------------------
  std::vector<std::vector<std::vector<seq::SeqId>>> per_graph(graphs.size());
  std::uint64_t dsd_s1 = 0;
  std::uint64_t dsd_raw = 0;
  {
    const Tracer::Scope s(tracer, "dsd");
    const prov::Rule rule = cfg.reduction == bigraph::Reduction::kDuplicate
                                ? prov::Rule::kBd
                                : prov::Rule::kBm;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const double t0 = now_seconds();
      shingle::DsdStats stats;
      std::vector<shingle::ShingleMerge> merges;
      per_graph[g] = shingle::report_families(
          graphs[g], cfg.shingle, &stats, pool_arg,
          want_prov ? &merges : nullptr);
      counts.max("dsd.max_graph_s", now_seconds() - t0);
      counts.add("dsd.tuples", static_cast<double>(stats.tuples));
      counts.add("dsd.first_level_shingles",
                 static_cast<double>(stats.first_level_shingles));
      dsd_s1 += stats.first_level_shingles;
      dsd_raw += stats.raw_components;
      for (const shingle::ShingleMerge& m : merges) {
        prov::Edge e;
        e.a = m.a;
        e.b = m.b;
        e.phase = prov::Phase::kDsd;
        e.rule = rule;
        e.score = static_cast<std::int32_t>(m.matches);
        e.matches = m.matches;
        e.columns = m.columns;
        dsd_edges.push_back(e);
      }
    }
  }
  phase_done("families", "mem.rss.bgg+dsd");

  // Density per family (duplicate reduction only), family order, Table-I
  // aggregates: the pipeline's fold and finalize steps.
  {
    const Tracer::Scope s(tracer, "fold");
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const bigraph::ComponentGraph& graph = graphs[g];
      std::unordered_map<seq::SeqId, std::uint32_t> dense;
      if (cfg.reduction == bigraph::Reduction::kDuplicate) {
        dense.reserve(graph.members.size());
        for (std::uint32_t i = 0; i < graph.members.size(); ++i) {
          dense[graph.members[i]] = i;
        }
      }
      for (auto& members : per_graph[g]) {
        pipeline::Family family;
        family.members = std::move(members);
        if (cfg.reduction == bigraph::Reduction::kDuplicate) {
          std::vector<std::uint32_t> nodes;
          nodes.reserve(family.members.size());
          for (const seq::SeqId id : family.members) {
            nodes.push_back(dense.at(id));
          }
          family.mean_degree = bigraph::mean_subgraph_degree(graph.graph, nodes);
          family.density = bigraph::subgraph_density(graph.graph, nodes);
        }
        result.families.push_back(std::move(family));
      }
    }
    graphs.clear();
    graphs_charge.reset();
    result.bgg_dsd_seconds = now_seconds() - bgg_dsd_start;
    std::sort(result.families.begin(), result.families.end(),
              [](const pipeline::Family& a, const pipeline::Family& b) {
                if (a.members.size() != b.members.size()) {
                  return a.members.size() > b.members.size();
                }
                return a.members.front() < b.members.front();
              });
    result.dense_subgraph_count = result.families.size();
    double degree_weighted = 0.0;
    double density_sum = 0.0;
    static util::SizeHistogram& sizes =
        util::metrics().histogram("families.family_size");
    for (const pipeline::Family& f : result.families) {
      sizes.add(f.members.size());
      result.sequences_in_subgraphs += f.members.size();
      result.largest_subgraph =
          std::max(result.largest_subgraph, f.members.size());
      degree_weighted += f.mean_degree * static_cast<double>(f.members.size());
      density_sum += f.density;
    }
    if (result.sequences_in_subgraphs > 0) {
      result.mean_degree =
          degree_weighted / static_cast<double>(result.sequences_in_subgraphs);
    }
    if (!result.families.empty()) {
      result.mean_density =
          density_sum / static_cast<double>(result.families.size());
    }
  }

  // ---- Artifacts -----------------------------------------------------------
  if (want_prov && ckpt) {
    const Tracer::Scope s(tracer, "prov.io");
    commit_sidecar(dir / "dsd.prov.jsonl", "dsd", dsd_s1 - dsd_raw, dsd_edges);
  }
  if (ckpt) {
    const Tracer::Scope s(tracer, "ckpt");
    util::CheckpointWriter w = payload(result.bgg_dsd_seconds);
    w.u64(result.families.size());
    for (const pipeline::Family& f : result.families) {
      w.u32_vec(std::vector<std::uint32_t>(f.members.begin(), f.members.end()));
      w.f64(f.mean_degree);
      w.f64(f.density);
    }
    write_ckpt(dir / "families.ckpt", kTagFamilies, w);
  }
  if (want_prov) {
    const Tracer::Scope s(tracer, "prov.io");
    prov::Ledger& ledger = result.provenance;
    ledger.sequences = set.size();
    ledger.edges.reserve(rr_edges.size() + ccd_edges.size() + dsd_edges.size());
    ledger.edges.insert(ledger.edges.end(), rr_edges.begin(), rr_edges.end());
    ledger.edges.insert(ledger.edges.end(), ccd_edges.begin(), ccd_edges.end());
    ledger.edges.insert(ledger.edges.end(), dsd_edges.begin(), dsd_edges.end());
    ledger.recount();
    ledger.counts.rr_merges = result.rr.removed_count();
    ledger.counts.ccd_merges = survivors.size() - result.ccd.components.size();
    ledger.counts.dsd_merges = dsd_s1 - dsd_raw;
    counts.add("prov.edges", static_cast<double>(ledger.edges.size()));
    if (ckpt) prov::write_ledger(ledger_path(cfg.checkpoint_dir), ledger);
  }
  if (ckpt) {
    const Tracer::Scope s(tracer, "report");
    pipeline::write_report(report_path(cfg.checkpoint_dir), result, cfg,
                           {"perfbench", "decompose",
                            want_prov ? ledger_path(cfg.checkpoint_dir) : ""});
  }

  // Whole-run registry movement.
  const util::MetricsSnapshot d = run.delta();
  counts.add("exec.parallel_jobs",
             static_cast<double>(d.counter("exec.parallel_jobs")));
  counts.add("io.bytes_committed",
             static_cast<double>(d.counter("io.bytes_committed")));
  counts.add("ckpt.bytes_written",
             static_cast<double>(d.counter("checkpoint.bytes_written")));
  counts.add("suffix.pairs_emitted",
             static_cast<double>(d.counter("suffix.pairs_emitted")));
  if (const auto it = d.histograms.find("align.batch_fill");
      it != d.histograms.end()) {
    counts.add("align.fill_lanes", static_cast<double>(it->second.sum));
    counts.add("align.fill_batches", static_cast<double>(it->second.count));
  }
  const auto gauge_max = [&d](const std::string& name) {
    const auto it = d.gauges.find(name);
    return it == d.gauges.end() ? 0.0 : static_cast<double>(it->second.max);
  };
  counts.max("mem.rr_index_bytes", gauge_max("mem.rr.suffix_index.total"));
  counts.max("mem.dsd_shingle_bytes", gauge_max("mem.dsd.shingle.total"));
  counts.max("mem.governor_high_water_bytes",
             static_cast<double>(util::governor().high_water()));
  return result;
}

}  // namespace perfbench
