// The PaCE master–worker engine (paper §IV-B), with self-healing.
//
// Rank 0 is the master; ranks 1..p-1 are workers. Each worker owns a set of
// prefix buckets of the (shared) suffix structure and generates promising
// pairs from them in decreasing maximal-match-length order. The protocol is
// round based and fully deterministic:
//
//   worker -> master (kTagRound): { seq, one stream chunk of new pairs
//                                   (<= cap) with its stream origin and
//                                   start index, verdicts acking the last
//                                   work chunk, exhausted flag }
//   master -> worker (kTagWork):  { seq, pairs to align (<= batch), streams
//                                   of dead workers to adopt, done flag }
//
// Each round the master visits live workers 1..p-1 in order; for each it
// applies the returned verdicts (policy), filters the submitted pairs
// (duplicate and policy filters — the transitive-closure check that removes
// >99.9 % of CCD pairs lives in the policy), queues survivors into a global
// FIFO, and replies with the next chunk of that FIFO. The run ends when
// every live worker is exhausted, the FIFO is empty, no chunk is
// outstanding, and no stream adoption is pending.
//
// Fault tolerance (see mpsim/fault_plan.hpp for the fault model):
//   - Sequence numbers make both directions at-least-once safe: duplicated
//     deliveries replay an old seq and are skipped.
//   - The master tracks, per worker, the unacked work chunk and the set of
//     generation streams assigned to it, plus a per-stream watermark of
//     pairs already received. When a worker is observed dead (recv_status
//     == kRankFailed, or silent past PaceParams::heartbeat_timeout), its
//     unacked chunk is requeued and its streams are adopted by the
//     least-loaded survivor, which regenerates them (worker_pairs is a pure
//     function of the shared index) and replays from the watermark. The
//     master's seen-set and the idempotent verdict application make any
//     replay overlap harmless, so the final master-policy state is
//     BIT-IDENTICAL to a fault-free run under any fault plan. Engine
//     counters and virtual times do legitimately differ under faults.
//   - The master itself must not crash (run_parallel rejects such plans);
//     if every worker dies the run aborts with a clear error.
//
// The same policy objects drive a serial (p = 1) path that produces the
// same final state, used as the test reference and by callers without a
// simulated machine: serial RR and CCD, the CCD merge-provenance replay,
// and B_d edge construction (bigraph::build_bd). The serial path can
// checkpoint its progress and resume mid-stream (SerialHooks).
//
// Both paths score a chunk of pairs the same way: the worker policy names
// each pair's alignment jobs, one pooled align_score_batch call scores
// them all (the library's one alignment splitter), and the policy reads
// each pair's results back into its verdict, in task order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "pclust/align/batch.hpp"
#include "pclust/mpsim/runtime.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/seq/sequence_set.hpp"
#include "pclust/suffix/maximal_match.hpp"

namespace pclust::exec {
class Pool;
}

namespace pclust::mpsim {
struct MwOptions;
}

namespace pclust::pace {

/// One promising pair: a shared maximal match of length >= ψ.
struct PairTask {
  seq::SeqId a = 0;
  seq::SeqId b = 0;
  std::uint32_t a_pos = 0;
  std::uint32_t b_pos = 0;
  std::uint32_t length = 0;

  [[nodiscard]] std::int64_t diagonal() const {
    return static_cast<std::int64_t>(a_pos) - static_cast<std::int64_t>(b_pos);
  }
  [[nodiscard]] std::uint64_t pair_key() const {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
};

/// Worker-computed alignment outcome for one PairTask.
struct Verdict {
  seq::SeqId a = 0;
  seq::SeqId b = 0;
  /// Phase-specific code. CCD: 1 = overlap accepted. RR: 1 = a contained in
  /// b, 2 = b contained in a, 3 = mutually contained. 0 = rejected.
  std::uint8_t code = 0;
  // Alignment evidence behind the code, consumed by the merge-provenance
  // recorder and B_d's work statistics. Deliberately EXCLUDED from the
  // simulated wire-size estimate (kVerdictBytes): provenance capture must
  // not perturb virtual time, and a real implementation would ship these
  // fields only when they are asked for.
  std::int32_t score = 0;
  std::uint32_t matches = 0;
  std::uint32_t columns = 0;
  std::uint32_t a_span = 0;
  std::uint32_t b_span = 0;
  /// DP cells of the pair's alignments, filled in by the engine from the
  /// worker's cell counts.
  std::uint64_t cells = 0;
};

/// Sub-master-side policy (hierarchical mode): a local replica of the
/// master state owned by one sub-master shard. `needs_alignment` filters
/// against the replica; `absorb` folds a verdict into it and reports
/// whether the replica CHANGED — changed verdicts are the cross-shard
/// union events forwarded to the root, unchanged ones are locally final.
/// Replicas only ever merge state (confluent), so absorbing the same event
/// twice, or out of order across shards, converges to the same replica.
class ShardPolicy {
 public:
  virtual ~ShardPolicy() = default;
  virtual bool needs_alignment(const PairTask& task) = 0;
  /// Fold @p verdict into the replica; true iff the replica changed.
  virtual bool absorb(const Verdict& verdict) = 0;
};

/// Master-side policy: decides which pairs still need alignment and folds
/// verdicts into phase state. Called only from the master rank (or the
/// serial driver); needs no locking.
class MasterPolicy {
 public:
  virtual ~MasterPolicy() = default;
  /// True if the pair still needs an alignment (pair-duplicate filtering is
  /// done by the engine before this is consulted).
  virtual bool needs_alignment(const PairTask& task) = 0;
  virtual void apply(const Verdict& verdict) = 0;
  /// Build one sub-master shard replica (hierarchical mode; called once per
  /// sub-master rank). Policies that return nullptr — the default — are
  /// order-dependent and only support the flat single master
  /// (PaceParams::masters == 1); run_parallel rejects masters >= 2 for
  /// them. `apply` must then be confluent AND idempotent (the root replays
  /// event logs after sub-master deaths).
  virtual std::unique_ptr<ShardPolicy> make_shard() { return nullptr; }
};

/// Worker-side policy: names the alignment jobs that decide a pair and
/// reads their results back into a verdict. The engine scores the jobs of
/// a whole chunk with one pooled align_score_batch call, whose results are
/// bit-identical to the scalar engines whatever the batch composition, and
/// sums each pair's DP cells into Verdict::cells. Both methods are const
/// and read only what the policy was built from, so the simulated worker
/// ranks share one policy.
class WorkerPolicy {
 public:
  virtual ~WorkerPolicy() = default;
  /// Append to @p out the jobs whose results decide @p task (possibly
  /// none).
  virtual void jobs(const PairTask& task,
                    std::vector<align::PairJob>& out) const = 0;
  /// The verdict for @p task from @p results, the results of the jobs
  /// jobs(task) appended, in that order.
  virtual Verdict verdict(
      const PairTask& task,
      std::span<const align::AlignmentResult> results) const = 0;
};

struct EngineCounters {
  std::uint64_t promising_pairs = 0;   // generated by workers (with dups)
  std::uint64_t duplicate_pairs = 0;   // dropped by the master's seen-set
  std::uint64_t filtered_pairs = 0;    // dropped by the policy filter
  std::uint64_t aligned_pairs = 0;     // decisive alignments (see below)
  /// run_serial only: pairs aligned in a batch but dropped by the
  /// in-order re-check, because an earlier verdict of the same batch made
  /// the filter reject them. They are counted in filtered_pairs, not
  /// aligned_pairs, so every counter above equals the one-pair-at-a-time
  /// schedule's; this one is the extra alignment work batching paid for.
  std::uint64_t speculative_pairs = 0;

  /// Pairs past the seen-set, each either aligned or filtered.
  [[nodiscard]] std::uint64_t candidates() const {
    return promising_pairs - duplicate_pairs;
  }
  /// Fraction of the candidates the filter skipped (0 without any).
  [[nodiscard]] double skip_ratio() const {
    return candidates() == 0 ? 0.0
                             : static_cast<double>(filtered_pairs) /
                                   static_cast<double>(candidates());
  }

  bool operator==(const EngineCounters&) const = default;
};

/// Run the engine on p >= 2 simulated ranks. The worker ranks share
/// @p worker_policy (its methods are const); the master policy is
/// single-threaded by protocol. When @p pool is given, index construction
/// and each rank's alignment chunks run on real pool threads — mpsim ranks
/// SHARE the pool; results are merged in task order so the outcome is
/// identical to pool = nullptr.
/// With a @p plan the run is fault injected: planned worker crashes are
/// healed by the protocol (see file comment) and the final master-policy
/// state matches the fault-free run bit for bit. Throws
/// std::invalid_argument if the plan crashes rank 0 (the master), and
/// RankError (nested std::runtime_error) if every worker dies.
///
/// With PaceParams::masters >= 2 the protocol runs as a two-level master
/// tree (ranks 1..masters are failable sub-masters holding ShardPolicy
/// replicas; see mpsim/masterworker.hpp): the master policy must provide
/// make_shard(), plans may crash sub-masters (the root heals them by event
/// log replay + orphan re-homing), and the final master-policy state is
/// still bit-identical to the flat fault-free run.
/// The rank layout is mpsim::MwPhase's: it rejects a topology or plan it
/// cannot run before the shared index is built, splits the index's
/// buckets over the worker streams, and records each rank's level in the
/// returned RunResult; this function supplies the pace hooks.
mpsim::RunResult run_parallel(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids, int p,
    const mpsim::MachineModel& model, const PaceParams& params,
    MasterPolicy& master_policy, const WorkerPolicy& worker_policy,
    EngineCounters* counters = nullptr, exec::Pool* pool = nullptr,
    const mpsim::FaultPlan* plan = nullptr);

/// Mid-stream checkpoint hooks for run_serial. The pair stream is the
/// deterministic global order (decreasing match length), so a stream index
/// is a complete progress watermark: pairs [0, next_pair) have been fully
/// folded into the master policy when checkpoint(next_pair) fires.
struct SerialHooks {
  /// Resume: skip pairs [0, start_pair) — the caller restored master-policy
  /// state from a checkpoint taken at this watermark. The duplicate seen-set
  /// restarts empty; re-admitted duplicates re-align to identical verdicts
  /// whose application is a no-op, so the final state is unaffected (pair
  /// COUNTS cover the resumed segment only).
  std::uint64_t start_pair = 0;
  /// Call @p checkpoint every this many inspected pairs (0 = never). The
  /// loop flushes its pending batch first, so checkpoints keep this
  /// stride at any batch size.
  std::uint64_t checkpoint_stride = 0;
  /// Invoked with the watermark; the callee snapshots master-policy state.
  std::function<void(std::uint64_t next_pair)> checkpoint;
};

/// Serial driver: identical pair stream (global decreasing match length),
/// identical filtering and verdict application. The one pair loop of the
/// library: serial RR and CCD, the CCD merge-provenance replay
/// (pace/provenance.hpp) and B_d edge construction (bigraph::build_bd, an
/// always-admit master over the CCD worker) all run it. Returns engine
/// counters and records none in the metrics registry: callers whose run is
/// a phase fold them in with record_engine_counters; the replay and B_d
/// add nothing. The pair stream is a pure function of (set, ids, params) —
/// independent of thread count, master topology, faults and resume points;
/// the pool's lanes (a null pool is one lane) run index construction, pair
/// enumeration and alignment.
/// Pairs that pass the filter are collected into batches of
/// params.batch_size, and each batch's jobs are scored by one pooled
/// align_score_batch call (one unpooled call at one lane, kPoolGrain-job
/// slices across several); each verdict carries its pair's DP cells.
/// Before each verdict is applied, in task order, the filter is asked
/// again; a pair it now rejects is counted as filtered (and speculative)
/// and its verdict dropped. Filters only ever
/// turn from admit to reject (RR removals and CCD merges are permanent), so
/// the admit-then-re-check decision is exactly the one-pair-at-a-time
/// schedule's: the final policy state AND every counter but
/// speculative_pairs match that schedule at every batch size and thread
/// count.
EngineCounters run_serial(const seq::SequenceSet& set,
                          const std::vector<seq::SeqId>& ids,
                          const PaceParams& params,
                          MasterPolicy& master_policy,
                          const WorkerPolicy& worker_policy,
                          exec::Pool* pool = nullptr,
                          const SerialHooks* hooks = nullptr);

/// Protocol options of a PaCE phase: label, "pace." metric prefix, wire
/// sizes, and @p params' masters, batching and liveness settings. The
/// simulated DSD stage starts from these too (include
/// pclust/mpsim/masterworker.hpp for the complete type).
mpsim::MwOptions protocol_options(const PaceParams& params);

/// Fold one phase's counters into the registry's `pace.*` counters. These
/// back the report's alignment-work identity: promising == aligned +
/// filtered + duplicate, where `filtered` is the paper's
/// skipped-by-cluster-filter count. Speculative alignments are a subset of
/// `filtered`. run_parallel's masters record their own share.
void record_engine_counters(const EngineCounters& c);

}  // namespace pclust::pace
