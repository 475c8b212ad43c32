// The end-to-end pclust pipeline (paper Figure 2):
//
//   input -> redundancy removal -> connected-component detection ->
//   bipartite graph generation -> dense subgraph detection -> families
//
// This is the library's top-level entry point. RR and CCD can run either
// serially or on a simulated distributed-memory machine (mpsim); BGG + DSD
// run per component, mirroring the paper's batching of components across
// cluster nodes (§V: components grouped into roughly equal batches).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pclust/bigraph/builders.hpp"
#include "pclust/mpsim/runtime.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/pipeline/dsd.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/seq/sequence_set.hpp"
#include "pclust/shingle/shingle.hpp"

namespace pclust::pipeline {

struct PipelineConfig {
  /// ψ, cutoffs, scoring for RR and CCD.
  pace::PaceParams pace;
  /// Band for the RR containment alignments; 0 = full dynamic programming
  /// (the default: the 95 % similarity cutoff merits exactness, and RR is
  /// the phase the paper spends > 90 % of its time in). CCD and BGG use
  /// pace.band.
  std::uint32_t rr_band = 0;
  /// Which bipartite reduction drives dense-subgraph detection.
  bigraph::Reduction reduction = bigraph::Reduction::kDuplicate;
  bigraph::BmParams bm;
  /// Shingle parameters; min_size is also the dense-subgraph size cutoff.
  shingle::ShingleParams shingle;
  /// Components smaller than this skip the DSD stage (paper: 5).
  std::uint32_t min_component = 5;

  /// SEG-style low-complexity masking of the input before any phase, with
  /// the default seq::ComplexityParams (masked residues become 'X': they
  /// never seed exact matches and score -1 in alignments). Off by default —
  /// the synthetic workloads carry no low-complexity sequence; real
  /// metagenomic data does.
  bool mask_low_complexity = false;

  /// 0 = serial; >= 2 = simulated ranks of
  /// mpsim::MachineModel::bluegene_l() for the RR and CCD phases.
  int processors = 0;

  /// REAL shared-memory threads (exec::Pool) used inside every phase: LCP
  /// and bucket construction, pair enumeration, batched RR/CCD/B_d
  /// verdicts, and the Shingle passes. The suffix array is sorted on one
  /// lane at every thread count. Every pooled step is one code path: 1
  /// runs it on one lane, inline; 0 = hardware_concurrency. Composes with
  /// `processors`: mpsim ranks share the one pool. All outputs are
  /// thread-count independent.
  unsigned threads = 1;

  /// Parallel Shingle stage (the paper's §VI future work, and the batched
  /// component distribution its experiments used on the Xeon cluster):
  /// 0/1 = serial DSD; >= 2 = components are LPT-batched across this many
  /// simulated ranks of mpsim::MachineModel::xeon_cluster().
  int dsd_processors = 0;

  /// Directory for phase-level checkpoints (created if missing); empty
  /// disables checkpointing. Files: rr.ckpt, ccd_partial.ckpt, ccd.ckpt,
  /// families.ckpt — versioned, CRC-checked (util/checkpoint.hpp), each
  /// carrying a fingerprint of the input and the result-relevant
  /// configuration.
  std::string checkpoint_dir;
  /// Resume from @p checkpoint_dir: completed phases load their checkpoint
  /// and are skipped; a partial CCD checkpoint re-enters the pair stream
  /// at its watermark (serial CCD only). Requires checkpoint_dir. Throws
  /// util::CheckpointError if a checkpoint's fingerprint does not match
  /// the current input/configuration. The resumed output is bit-identical
  /// to an uninterrupted run.
  bool resume = false;
  /// Pairs between mid-CCD partial checkpoints (serial CCD path only;
  /// 0 disables partials, leaving only whole-phase checkpoints).
  std::uint64_t ccd_checkpoint_stride = 100'000;

  /// Memory budget in bytes for the capacity ledger (util/memgov);
  /// 0 = unlimited. Once the ledger's high-water nears the budget, the
  /// pooled BGG+DSD drain holds one component graph in flight, an
  /// output-invariant lever, so families, provenance and work counters
  /// stay bit-identical to an unconstrained run; a run that exceeds twice
  /// the budget exits structured at the next phase boundary
  /// (MemoryBudgetExceeded), resumable when checkpointing is on.
  /// Not part of the checkpoint fingerprint: like thread count, the
  /// budget never changes results.
  std::uint64_t mem_budget_bytes = 0;

  /// Capture merge provenance: every union–find merge that survives into
  /// the final partition is recorded as one evidence edge (sequence pair,
  /// phase, rule, alignment/shingle evidence) in PipelineResult::
  /// provenance. The ledger is a CANONICAL DERIVATION — a pure function of
  /// (input, final phase results, parameters) — so its bytes are identical
  /// across thread counts, master topologies, checkpoint resume, and any
  /// fault plan under which the family output itself is invariant (see
  /// pace/provenance.hpp and DESIGN.md §16). The serial CCD path captures
  /// at decision time for free; parallel/resumed runs replay the serial
  /// engine. With checkpointing enabled, per-phase provenance sidecars
  /// (<phase>.prov.jsonl in checkpoint_dir) let `--resume` splice already-
  /// derived evidence instead of re-deriving it.
  bool provenance = false;

  /// Fault injection, one plan per simulated phase, checked against its
  /// phase's layout before any phase runs (check_fault_plans). Each phase
  /// restarts its virtual clock at 0, so a plan shared by two hits both.
  /// RR and CCD (ignored when processors < 2): the engine self-heals
  /// worker crashes; see pace/engine.hpp for the guarantees per phase. RR
  /// always runs flat, so only CCD's plan may fault sub-masters.
  const mpsim::FaultPlan* rr_fault_plan = nullptr;
  const mpsim::FaultPlan* ccd_fault_plan = nullptr;
  /// BGG+DSD (ignored when dsd_processors < 2; flat when too narrow for the
  /// master tree). Its graph-keyed verdicts make its family output
  /// bit-identical under ANY survivable plan (see pipeline/dsd.hpp).
  const mpsim::FaultPlan* dsd_fault_plan = nullptr;
};

struct PipelineResult {
  pace::RedundancyResult rr;
  pace::ComponentsResult ccd;
  std::vector<Family> families;  // descending size

  /// Simulated (parallel mode) or measured (serial mode) phase times, s.
  double rr_seconds = 0.0;
  double ccd_seconds = 0.0;
  double bgg_dsd_seconds = 0.0;
  /// Full simulated-run record of the DSD phase (counters, crashed ranks,
  /// fault/healing events; its makespan is the simulated DSD time).
  /// Default-constructed, makespan 0, when DSD ran serially.
  mpsim::RunResult dsd_run;

  // -- Table-I quantities ---------------------------------------------------
  std::size_t input_sequences = 0;
  std::size_t non_redundant_sequences = 0;
  std::size_t components_min_size = 0;   // #CC with >= min_component members
  std::size_t dense_subgraph_count = 0;  // #DS
  std::size_t sequences_in_subgraphs = 0;
  double mean_degree = 0.0;   // over all DS members
  double mean_density = 0.0;  // over all DS
  std::size_t largest_subgraph = 0;

  /// Phase provenance when checkpointing is enabled: one entry per phase,
  /// e.g. "rr:computed", "rr:resumed", "ccd:resumed-partial",
  /// "families:resumed", "rr:resumed-backup" (primary checkpoint damaged,
  /// rolled back to the last-good generation). Empty when checkpoint_dir
  /// is unset.
  std::vector<std::string> phase_log;
  /// Checkpoint-recovery events from this run (quarantined files,
  /// rollbacks to a backup generation). Empty when nothing was damaged.
  std::vector<std::string> recovery_log;

  /// Merge-provenance ledger (PipelineConfig::provenance): evidence edges
  /// in canonical derivation order plus per-phase/per-rule tallies and the
  /// expected union–find merge counts. Default-constructed (sequences ==
  /// 0, no edges) when capture was off.
  prov::Ledger provenance;

  [[nodiscard]] std::vector<std::vector<seq::SeqId>> family_clustering() const;
};

/// Checks each fault plan in @p config against its phase's layout with
/// FaultPlan::validate_protocol (RR flat on `processors`, CCD with
/// `pace.masters`, DSD on `dsd_processors` after its flat fallback);
/// throws std::invalid_argument if one is malformed or unsurvivable.
/// run() calls it before RR.
void check_fault_plans(const PipelineConfig& config);

/// Run the full pipeline.
[[nodiscard]] PipelineResult run(const seq::SequenceSet& set,
                                 const PipelineConfig& config = {});

/// Render the Table-I row for a result ("TABLE I" in the paper).
[[nodiscard]] std::string table1_row(const PipelineResult& result);

}  // namespace pclust::pipeline
