#include "pclust/pipeline/dsd.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "pclust/mpsim/masterworker.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::pipeline {

namespace {

struct DsdTask {
  std::uint32_t graph = 0;
};

struct DsdVerdict {
  std::uint32_t graph = 0;
  std::vector<std::vector<seq::SeqId>> families;
  // Merge provenance: surviving Pass II merges (capture only) plus the
  // Shingle tallies behind the derivation-side merge identity. Carried on
  // the verdict so healing replays stay first-application-wins; the
  // simulated wire size (verdict_bytes) deliberately ignores them.
  std::vector<shingle::ShingleMerge> merges;
  std::uint64_t s1_nodes = 0;
  std::uint64_t raw_components = 0;
};

mpsim::MwOptions dsd_options(const pace::PaceParams& engine) {
  mpsim::MwOptions opt;
  opt.phase = "dsd";
  opt.metrics_prefix = "dsd";
  opt.masters = std::max(1, engine.masters);
  // One graph per chunk: components vary wildly in Shingle cost, so
  // demand-driven single-graph dispatch is the LPT analogue of the paper's
  // batched distribution.
  opt.batch_size = 1;
  opt.generation_batches = 1;
  opt.heartbeat_timeout = engine.heartbeat_timeout;
  opt.heartbeat_retries = engine.heartbeat_retries;
  opt.heartbeat_max_timeout = engine.heartbeat_max_timeout;
  opt.deadline_seconds = engine.phase_deadline;
  opt.task_bytes = 4;       // one graph id
  opt.verdict_bytes = 96;   // family descriptor estimate
  opt.event_bytes = 96;     // forwarded events carry the family lists
  return opt;
}

/// LPT over the WORKER ranks ([first_worker, p)) on the estimated Shingle
/// cost (~ edges x c1 hash-and-select operations); each worker's share is
/// its generation stream, kept in ascending graph order for determinism.
std::vector<std::vector<std::uint32_t>> assign_streams(
    const std::vector<bigraph::ComponentGraph>& graphs, int p,
    int first_worker) {
  std::vector<std::vector<std::uint32_t>> owned(static_cast<std::size_t>(p));
  std::vector<std::uint32_t> order(graphs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              const auto ex = graphs[x].graph.edge_count();
              const auto ey = graphs[y].graph.edge_count();
              if (ex != ey) return ex > ey;
              return x < y;
            });
  std::vector<double> load(static_cast<std::size_t>(p), 0.0);
  for (const std::uint32_t g : order) {
    int target = first_worker;
    for (int w = first_worker + 1; w < p; ++w) {
      if (load[static_cast<std::size_t>(w)] <
          load[static_cast<std::size_t>(target)]) {
        target = w;
      }
    }
    owned[static_cast<std::size_t>(target)].push_back(g);
    load[static_cast<std::size_t>(target)] +=
        static_cast<double>(graphs[g].graph.edge_count());
  }
  for (auto& stream : owned) std::sort(stream.begin(), stream.end());
  return owned;
}

}  // namespace

DsdParallelResult run_dsd_parallel(
    const std::vector<bigraph::ComponentGraph>& graphs,
    const shingle::ShingleParams& params, int p,
    const mpsim::MachineModel& model, const pace::PaceParams& engine,
    exec::Pool* pool, const mpsim::FaultPlan* plan, bool capture_merges) {
  const mpsim::MwOptions opt = dsd_options(engine);
  const mpsim::MwTopology topo{p, opt.masters};
  if (p < 2) {
    throw std::invalid_argument("run_dsd_parallel: need >= 2 ranks");
  }
  topo.require_worker("run_dsd_parallel");
  // Reject unsurvivable plans up front (crashing rank 0, every sub-master,
  // or every worker) with the CLI's exit-code-2 error class.
  if (plan) plan->validate_protocol(p, topo.masters);

  const auto owned = assign_streams(graphs, p, topo.first_worker());

  DsdParallelResult out;
  out.families_per_graph.resize(graphs.size());
  out.merges_per_graph.resize(graphs.size());
  out.s1_nodes_per_graph.assign(graphs.size(), 0);
  out.raw_components_per_graph.assign(graphs.size(), 0);
  // Graph-keyed verdict slots on the authoritative rank (flat master or
  // hierarchical root): replays after healing (or duplicated deliveries)
  // re-fill a slot with the same deterministic value, so the first
  // application wins and ordering never matters.
  std::vector<char> seen(graphs.size(), 0);
  std::vector<char> applied(graphs.size(), 0);
  const auto apply = [&](const DsdVerdict& v) {
    if (applied[v.graph]) return;
    applied[v.graph] = 1;
    out.families_per_graph[v.graph] = v.families;
    out.merges_per_graph[v.graph] = v.merges;
    out.s1_nodes_per_graph[v.graph] = v.s1_nodes;
    out.raw_components_per_graph[v.graph] = v.raw_components;
  };

  const auto worker_fn = [&](mpsim::Communicator& comm) {
    mpsim::MwWorker<DsdTask, DsdVerdict> worker;
    // Stream (re)generation virtually re-pays the bipartite-graph
    // construction of the origin's share — BGG is simulated work too,
    // so adopting a dead rank's components costs the adopter what the
    // dead rank had paid.
    worker.generate = [&](mpsim::Communicator& comm_, int origin) {
      std::vector<DsdTask> tasks;
      const auto& stream = owned[static_cast<std::size_t>(origin)];
      tasks.reserve(stream.size());
      for (const std::uint32_t g : stream) {
        comm_.charge_cells(graphs[g].alignment_cells);
        comm_.charge_pairs(graphs[g].candidate_pairs);
        tasks.push_back(DsdTask{g});
      }
      return tasks;
    };
    worker.evaluate = [&](mpsim::Communicator& comm_,
                          const std::vector<DsdTask>& tasks,
                          std::vector<DsdVerdict>& verdicts) {
      for (const DsdTask& t : tasks) {
        const std::uint32_t g = t.graph;
        const double t0 = comm_.clock().now();
        comm_.charge_hashes(graphs[g].graph.edge_count() * params.c1);
        DsdVerdict v;
        v.graph = g;
        shingle::DsdStats st;
        v.families = shingle::report_families(
            graphs[g], params, &st, pool,
            capture_merges ? &v.merges : nullptr);
        v.s1_nodes = st.first_level_shingles;
        v.raw_components = st.raw_components;
        comm_.count("components_processed");
        if (util::trace::enabled()) {
          util::trace::complete(
              util::trace::current_pid(), comm_.rank(),
              "shingle:component-" + std::to_string(g), "dsd", t0 * 1e6,
              (comm_.clock().now() - t0) * 1e6);
        }
        verdicts.push_back(std::move(v));
      }
    };
    mpsim::mw_worker_loop(comm, opt, worker);
  };

  out.run = mpsim::run_phase(
      opt.phase, p, model, plan,
      [&](mpsim::Communicator& comm) {
        if (comm.rank() == 0) {
          if (!topo.hierarchical()) {
            mpsim::MwMaster<DsdTask, DsdVerdict> master;
            master.admit = [&](const DsdTask& t) {
              if (seen[t.graph]) return mpsim::MwAdmit::kDuplicate;
              seen[t.graph] = 1;
              return mpsim::MwAdmit::kQueue;
            };
            master.apply = apply;
            mpsim::mw_master_loop(comm, opt, master);
            return;
          }
          mpsim::MwRoot<DsdVerdict> root;
          root.apply = apply;
          mpsim::mw_root_loop(comm, opt, topo, root);
          return;
        }
        if (topo.is_submaster(comm.rank())) {
          // Shard replica: per-graph seen/resolved flags. Every first
          // verdict for a graph changes the replica and is forwarded to
          // the root; synced events from other shards mark graphs
          // resolved so post-reroute replays are filtered locally.
          std::vector<char> shard_seen(graphs.size(), 0);
          std::vector<char> shard_done(graphs.size(), 0);
          mpsim::MwShard<DsdTask, DsdVerdict> shard;
          shard.admit = [&shard_seen](const DsdTask& t) {
            if (shard_seen[t.graph]) return mpsim::MwAdmit::kDuplicate;
            shard_seen[t.graph] = 1;
            return mpsim::MwAdmit::kQueue;
          };
          shard.resolve = [&shard_done](const DsdVerdict& v) {
            if (shard_done[v.graph]) return false;
            shard_done[v.graph] = 1;
            return true;
          };
          shard.learn = [&shard_done](const DsdVerdict& v) {
            shard_done[v.graph] = 1;
          };
          mpsim::mw_submaster_loop(comm, opt, topo, shard);
          return;
        }
        worker_fn(comm);
      },
      [topo](int r) { return std::string(topo.level_of(r)); });
  return out;
}

}  // namespace pclust::pipeline
