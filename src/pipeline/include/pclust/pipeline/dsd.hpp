// Dense-subgraph detection per component graph (paper §V: components are
// batched across cluster nodes; §VI suggests parallelizing Shingle).
// shingle_graph is the per-graph step of both schedules, the pooled drain
// and the simulated stage's workers; its GraphFamilies record is all the
// pipeline folds for a graph, so the graph can be freed once it is made.
//
// The simulated stage runs each graph as one task on the resilient
// master–worker protocol (mpsim::MwPhase, which owns the rank layout and
// the LPT split of graphs across workers): workers virtually re-pay the
// bipartite-graph construction cost of the graphs they own when generating
// their task stream, then pay the Shingle hashing cost per evaluated graph.
// A worker death requeues its outstanding graphs and hands its generation
// stream to a survivor, so the phase completes under any fault plan that
// leaves the master and at least one worker alive. Records fill graph-keyed
// slots (first application wins) and return in graph order, so the folded
// output is BIT-IDENTICAL to the pooled drain's under any rank count,
// healing, duplicated delivery or straggler.
#pragma once

#include <vector>

#include "pclust/bigraph/builders.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/mpsim/machine_model.hpp"
#include "pclust/mpsim/runtime.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/shingle/shingle.hpp"

namespace pclust::pipeline {

/// One reported dense subgraph with its quality measurements.
struct Family {
  std::vector<seq::SeqId> members;  // sorted
  double mean_degree = 0.0;  // within-subgraph, duplicate reduction only
  double density = 0.0;      // mean_degree / (|members| - 1)
};

/// One component graph's DSD output: everything the pipeline folds for it.
struct GraphFamilies {
  /// report_families' families with their B_d degree and density, measured
  /// in the graph (0 under B_m).
  std::vector<Family> families;
  /// Surviving Pass II merges, lifted to sequence ids (captured only).
  std::vector<shingle::ShingleMerge> merges;
  /// Shingle tallies: the graph's expected DSD merges are their difference.
  std::uint64_t s1_nodes = 0;
  std::uint64_t raw_components = 0;
};

/// The per-graph DSD step: shingle::report_families on @p pool's lanes
/// and each family's B_d degree and density, capturing the surviving
/// merges only when @p capture_merges is set.
[[nodiscard]] GraphFamilies shingle_graph(
    const bigraph::ComponentGraph& graph, const shingle::ShingleParams& params,
    exec::Pool* pool, bool capture_merges);

struct DsdParallelResult {
  /// per_graph[g] == shingle_graph(graphs[g], ...), filled exactly once
  /// (first application wins: replays never duplicate provenance).
  std::vector<GraphFamilies> per_graph;
  mpsim::RunResult run;
};

/// Run BGG cost accounting + dense-subgraph detection for @p graphs on
/// @p p simulated ranks: rank 0 masters (the root of a tree when
/// engine.masters >= 2), and the worker ranks own generation streams
/// balanced by LPT on graph edge count. @p engine supplies the master
/// count and the liveness settings (heartbeat, retries, ceiling, phase
/// deadline) through pace::protocol_options. Throws std::invalid_argument
/// for p < 2 or a tree with no worker rank (prefixed "run_dsd_parallel"),
/// and for a plan that crashes rank 0, every sub-master or every worker.
/// The result's run records each rank's level.
/// @p capture_merges is shingle_graph's; virtual time is unaffected.
[[nodiscard]] DsdParallelResult run_dsd_parallel(
    const std::vector<bigraph::ComponentGraph>& graphs,
    const shingle::ShingleParams& params, int p,
    const mpsim::MachineModel& model, const pace::PaceParams& engine,
    exec::Pool* pool, const mpsim::FaultPlan* plan,
    bool capture_merges = false);

}  // namespace pclust::pipeline
