// Simulated, self-healing BGG + DSD phase (paper §V: components are
// batched across cluster nodes; §VI suggests parallelizing Shingle).
//
// Each component graph is one task on the resilient master–worker protocol,
// run through the same entry point as PaCE's phases (mpsim::MwPhase in
// mpsim/masterworker.hpp, which owns the rank layout and the LPT split of
// graphs across workers): workers virtually re-pay the bipartite-graph
// construction cost of the graphs they own when generating their task
// stream, then pay the Shingle hashing cost per evaluated graph. A worker
// death requeues its outstanding graphs and hands its generation stream to
// a survivor, so the phase completes under any fault plan that leaves the
// master and at least one worker alive.
//
// Family output is keyed by graph id (idempotent verdict slots) and
// assembled in ascending graph order, so it is BIT-IDENTICAL to the serial
// path regardless of rank count, healing, duplicated deliveries, or
// stragglers.
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

struct DsdParallelResult {
  /// families_per_graph[g] == shingle::report_families(graphs[g], ...) —
  /// one slot per component graph, filled exactly once.
  std::vector<std::vector<std::vector<seq::SeqId>>> families_per_graph;
  /// Per-graph surviving Pass II merges (capture_merges only; endpoints
  /// already lifted to sequence ids). First-application-wins like the
  /// family slots, so replays and duplicated deliveries never duplicate
  /// provenance.
  std::vector<std::vector<shingle::ShingleMerge>> merges_per_graph;
  /// Per-graph Shingle tallies (always filled): the derivation-side merge
  /// identity is sum over graphs of s1_nodes - raw_components.
  std::vector<std::uint64_t> s1_nodes_per_graph;
  std::vector<std::uint64_t> raw_components_per_graph;
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
/// @p capture_merges additionally records each graph's surviving Pass II
/// merges (merge provenance); virtual time is unaffected.
[[nodiscard]] DsdParallelResult run_dsd_parallel(
    const std::vector<bigraph::ComponentGraph>& graphs,
    const shingle::ShingleParams& params, int p,
    const mpsim::MachineModel& model, const pace::PaceParams& engine,
    exec::Pool* pool, const mpsim::FaultPlan* plan,
    bool capture_merges = false);

}  // namespace pclust::pipeline
