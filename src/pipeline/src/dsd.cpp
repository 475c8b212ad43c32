#include "pclust/pipeline/dsd.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pclust/mpsim/masterworker.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::pipeline {

namespace {

struct DsdTask {
  std::uint32_t graph = 0;
};

// The graph's record rides on the verdict so healing replays stay
// first-application-wins; the simulated wire size (verdict_bytes)
// deliberately ignores merges and tallies.
struct DsdVerdict {
  std::uint32_t graph = 0;
  GraphFamilies record;
};

}  // namespace

GraphFamilies shingle_graph(const bigraph::ComponentGraph& graph,
                            const shingle::ShingleParams& params,
                            exec::Pool* pool, bool capture_merges) {
  GraphFamilies out;
  shingle::DsdStats stats;
  auto families = shingle::report_families(
      graph, params, &stats, pool, capture_merges ? &out.merges : nullptr);
  out.s1_nodes = stats.first_level_shingles;
  out.raw_components = stats.raw_components;
  // B_d's left index is its right index: a family's nodes are its members'
  // places in the component.
  const bool duplicate = graph.reduction == bigraph::Reduction::kDuplicate;
  const auto dense = duplicate
                         ? pace::dense_index(graph.members)
                         : std::unordered_map<seq::SeqId, std::uint32_t>{};
  out.families.reserve(families.size());
  for (auto& members : families) {
    Family& family = out.families.emplace_back();
    family.members = std::move(members);
    if (!duplicate) continue;
    std::vector<std::uint32_t> nodes;
    nodes.reserve(family.members.size());
    for (const seq::SeqId id : family.members) nodes.push_back(dense.at(id));
    family.mean_degree = bigraph::mean_subgraph_degree(graph.graph, nodes);
    family.density = bigraph::subgraph_density(graph.graph, nodes);
  }
  return out;
}

DsdParallelResult run_dsd_parallel(
    const std::vector<bigraph::ComponentGraph>& graphs,
    const shingle::ShingleParams& params, int p,
    const mpsim::MachineModel& model, const pace::PaceParams& engine,
    exec::Pool* pool, const mpsim::FaultPlan* plan, bool capture_merges) {
  mpsim::MwOptions opt = pace::protocol_options(engine);
  opt.phase = "dsd";
  opt.metrics_prefix = "dsd";
  // One graph per chunk: components vary wildly in Shingle cost, so
  // demand-driven single-graph dispatch is the LPT analogue of the paper's
  // batched distribution.
  opt.batch_size = 1;
  opt.generation_batches = 1;
  opt.task_bytes = 4;      // one graph id
  opt.verdict_bytes = 96;  // family descriptor estimate
  opt.event_bytes = 96;    // forwarded events carry the family lists
  const mpsim::MwPhase phase("run_dsd_parallel", std::move(opt), p, plan);

  // LPT over the worker ranks on the estimated Shingle cost (~ edges x c1
  // hash-and-select operations); each worker's share, in ascending graph
  // order, is its generation stream.
  std::vector<std::uint64_t> edges;
  edges.reserve(graphs.size());
  for (const auto& g : graphs) edges.push_back(g.graph.edge_count());
  const std::vector<int> owner = phase.assign(edges);

  DsdParallelResult out;
  out.per_graph.resize(graphs.size());
  // Graph-keyed verdict slots on the authoritative rank (flat master or
  // hierarchical root): replays after healing (or duplicated deliveries)
  // re-fill a slot with the same deterministic value, so the first
  // application wins and ordering never matters.
  std::vector<char> seen(graphs.size(), 0);
  std::vector<char> applied(graphs.size(), 0);
  const auto apply = [&](const DsdVerdict& v) {
    if (applied[v.graph]) return;
    applied[v.graph] = 1;
    out.per_graph[v.graph] = v.record;
  };

  mpsim::MwRoles<DsdTask, DsdVerdict> roles;
  roles.master = [&] {
    const auto admit = [&](const DsdTask& t) {
      if (seen[t.graph]) return mpsim::MwAdmit::kDuplicate;
      seen[t.graph] = 1;
      return mpsim::MwAdmit::kQueue;
    };
    return mpsim::MwMaster<DsdTask, DsdVerdict>{admit, apply};
  };
  roles.root = [&] { return mpsim::MwRoot<DsdVerdict>{apply}; };
  // Shard replica: per-graph seen/resolved flags. Every first verdict for
  // a graph changes the replica and is forwarded to the root; synced
  // events from other shards mark graphs resolved so post-reroute replays
  // are filtered locally.
  roles.shard = [&] {
    auto shard_seen = std::make_shared<std::vector<char>>(graphs.size(), 0);
    auto shard_done = std::make_shared<std::vector<char>>(graphs.size(), 0);
    mpsim::MwShard<DsdTask, DsdVerdict> hooks;
    hooks.admit = [shard_seen](const DsdTask& t) {
      if ((*shard_seen)[t.graph]) return mpsim::MwAdmit::kDuplicate;
      (*shard_seen)[t.graph] = 1;
      return mpsim::MwAdmit::kQueue;
    };
    hooks.resolve = [shard_done](const DsdVerdict& v) {
      if ((*shard_done)[v.graph]) return false;
      (*shard_done)[v.graph] = 1;
      return true;
    };
    hooks.learn = [shard_done](const DsdVerdict& v) {
      (*shard_done)[v.graph] = 1;
    };
    return hooks;
  };
  roles.worker = [&] {
    mpsim::MwWorker<DsdTask, DsdVerdict> hooks;
    // Stream (re)generation virtually re-pays the bipartite-graph
    // construction of the origin's share — BGG is simulated work too,
    // so adopting a dead rank's components costs the adopter what the
    // dead rank had paid.
    hooks.generate = [&](mpsim::Communicator& comm, int origin) {
      std::vector<DsdTask> tasks;
      for (std::uint32_t g = 0; g < graphs.size(); ++g) {
        if (owner[g] != origin) continue;
        comm.charge_cells(graphs[g].alignment_cells);
        comm.charge_pairs(graphs[g].candidate_pairs);
        tasks.push_back(DsdTask{g});
      }
      return tasks;
    };
    hooks.evaluate = [&](mpsim::Communicator& comm,
                         const std::vector<DsdTask>& tasks,
                         std::vector<DsdVerdict>& verdicts) {
      for (const DsdTask& t : tasks) {
        const std::uint32_t g = t.graph;
        const double t0 = comm.clock().now();
        comm.charge_hashes(graphs[g].graph.edge_count() * params.c1);
        DsdVerdict v{g, shingle_graph(graphs[g], params, pool, capture_merges)};
        comm.count("components_processed");
        if (util::trace::enabled()) {
          util::trace::complete(
              util::trace::current_pid(), comm.rank(),
              "shingle:component-" + std::to_string(g), "dsd", t0 * 1e6,
              (comm.clock().now() - t0) * 1e6);
        }
        verdicts.push_back(std::move(v));
      }
    };
    return hooks;
  };
  out.run = phase.run(model, roles);
  return out;
}

}  // namespace pclust::pipeline
