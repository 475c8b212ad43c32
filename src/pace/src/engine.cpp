#include "pclust/pace/engine.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "pclust/align/scoring.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/mpsim/masterworker.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/telemetry.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::pace {

void record_engine_counters(const EngineCounters& c) {
  auto& m = util::metrics();
  m.counter("pace.promising_pairs").add(c.promising_pairs);
  m.counter("pace.duplicate_pairs").add(c.duplicate_pairs);
  m.counter("pace.skipped_by_cluster_filter").add(c.filtered_pairs);
  m.counter("pace.alignments_attempted").add(c.aligned_pairs);
  m.counter("pace.alignments_speculative").add(c.speculative_pairs);
}

namespace {

// Wire-size estimates for the virtual clock (bytes per element). The
// verdict estimate stays at the {a, b, code} wire size even though
// Verdict carries optional provenance stats — those ride only when a
// ledger is requested, and virtual time must not depend on that choice.
constexpr std::uint64_t kPairBytes = 20;
constexpr std::uint64_t kVerdictBytes = 9;

/// Index structures shared (read-only) by all ranks.
struct SharedIndex {
  suffix::ConcatText text;
  std::vector<std::int32_t> sa;
  std::vector<std::int32_t> lcp;
  std::vector<suffix::MaximalMatchEnumerator::Bucket> buckets;
  std::vector<int> bucket_owner;  // owning generation stream per bucket

  /// The stream that owns every bucket without a protocol phase.
  static constexpr int kSerialStream = 1;

  /// @p phase splits the buckets across its worker ranks by weight;
  /// without one (run_serial), kSerialStream owns them all.
  SharedIndex(const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
              const PaceParams& params, exec::Pool* pool,
              const mpsim::MwPhase* phase = nullptr)
      : text(set, ids), mp(match_params(params)),
        lanes_(exec::or_serial(pool)) {
    if (params.bucket_prefix > params.psi) {
      throw std::invalid_argument(
          "PaceParams: bucket_prefix must be <= psi (nodes may not span "
          "buckets)");
    }
    // SA-IS is linear and serial at every pool size; the LCP and bucket
    // scans split across the pool's lanes.
    sa = suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
    lcp = suffix::build_lcp_parallel(text, sa, lanes_);
    const suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);
    buckets = enumerator.prefix_buckets(params.bucket_prefix, lanes_);

    if (phase) {
      std::vector<std::uint64_t> weights;
      weights.reserve(buckets.size());
      for (const auto& bucket : buckets) weights.push_back(bucket.weight);
      bucket_owner = phase->assign(weights);
    } else {
      bucket_owner.assign(buckets.size(), kSerialStream);
    }

    // Publish the index footprint under the phase prefix (rr/ccd): the GST
    // replacement (SA + LCP + buckets) must stay linear in the text.
    util::MemoryBreakdown b("suffix_index");
    b.add("concat_text", text.memory_usage());
    b.add("suffix_array", util::vector_bytes(sa));
    b.add("lcp", util::vector_bytes(lcp));
    b.add("buckets", util::vector_bytes(buckets));
    b.add("bucket_owners", util::vector_bytes(bucket_owner));
    util::record_memory(b, params.phase_label ? params.phase_label : "pace");
    // The index dominates the RR/CCD footprint; charging it is what puts
    // the governor under pressure (and shrinks evaluation grains) while
    // the phase runs. Released with the index by ~MemoryCharge.
    charge_.add("suffix_index", b.total());
  }

  static suffix::MaximalMatchParams match_params(const PaceParams& params) {
    suffix::MaximalMatchParams mp;
    mp.min_length = params.psi;
    mp.max_node_occurrences = params.max_node_occurrences;
    return mp;
  }

  /// All promising pairs owned by @p worker_rank, decreasing match length.
  /// A pure function of the shared index — any rank can regenerate any
  /// other rank's stream, which is what makes stream adoption possible.
  /// The owned buckets are split into runs of consecutive buckets that
  /// are enumerated concurrently; their lists are concatenated in bucket
  /// order, which is the order one run enumerating bucket by bucket
  /// appends in (the stable sort then ties on it).
  [[nodiscard]] std::vector<PairTask> worker_pairs(int worker_rank) const {
    suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);
    std::vector<std::size_t> owned;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (bucket_owner[i] == worker_rank) owned.push_back(i);
    }

    // Several lanes get about kRunsPerLane runs each, so dynamic chunking
    // evens out uneven buckets; one lane enumerates every owned bucket as
    // one run, whose list becomes the stream without a copy.
    const std::size_t runs = std::min(
        owned.size(),
        lanes_.size() > 1 ? kRunsPerLane * std::size_t{lanes_.size()} : 1);
    auto per_run = exec::parallel_map<std::vector<PairTask>>(
        lanes_, runs, 1, [&](std::size_t r) {
          std::vector<PairTask> pairs;
          for (std::size_t k = owned.size() * r / runs;
               k < owned.size() * (r + 1) / runs; ++k) {
            enumerator.enumerate(buckets[owned[k]].lb, buckets[owned[k]].rb,
                                 [&pairs](const suffix::MaximalMatch& m) {
                                   pairs.push_back(PairTask{m.a, m.b, m.a_pos,
                                                            m.b_pos, m.length});
                                   return true;
                                 });
          }
          return pairs;
        });
    if (per_run.empty()) return {};
    std::vector<PairTask> out = std::move(per_run.front());
    for (std::size_t r = 1; r < per_run.size(); ++r) {
      out.insert(out.end(), per_run[r].begin(), per_run[r].end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const PairTask& x, const PairTask& y) {
                       return x.length > y.length;
                     });
    return out;
  }

  /// Total suffix characters owned by @p worker_rank (index-build cost).
  [[nodiscard]] std::uint64_t worker_chars(int worker_rank) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (bucket_owner[i] == worker_rank) total += buckets[i].weight;
    }
    return total;
  }

  /// Bucket runs per pool lane in worker_pairs when there are several
  /// lanes: enough for dynamic chunking to even out uneven buckets, few
  /// enough that per-run lists and pool hand-offs stay cheap next to the
  /// enumeration itself (one run per bucket flooded the pool).
  static constexpr std::size_t kRunsPerLane = 8;

  suffix::MaximalMatchParams mp;
  exec::Pool& lanes_;
  util::MemoryCharge charge_;
};

/// Score one chunk of tasks: every task's jobs go through one pooled
/// align_score_batch call, then verdicts are read back and cells charged
/// to @p comm serially in task order, so both the results and the virtual
/// clock are independent of pool scheduling.
void evaluate_tasks(const std::vector<PairTask>& tasks,
                    const WorkerPolicy& policy, mpsim::Communicator* comm,
                    exec::Pool* pool, std::vector<Verdict>& verdicts) {
  std::vector<align::PairJob> jobs;
  std::vector<std::size_t> first;  // task k's jobs: [first[k], first[k + 1])
  first.reserve(tasks.size() + 1);
  for (const PairTask& task : tasks) {
    first.push_back(jobs.size());
    policy.jobs(task, jobs);
  }
  first.push_back(jobs.size());
  std::vector<align::AlignmentResult> results(jobs.size());
  align::align_score_batch(jobs.data(), jobs.size(), align::blosum62(),
                           results.data(), pool);
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const auto own = std::span<const align::AlignmentResult>(results).subspan(
        first[k], first[k + 1] - first[k]);
    Verdict v = policy.verdict(tasks[k], own);
    for (const align::AlignmentResult& r : own) v.cells += r.cells;
    if (comm) {
      comm->charge_cells(v.cells);
      comm->count("alignments_computed");
    }
    verdicts.push_back(v);
  }
}

/// A pace master's admit hook: the pair-duplicate seen-set, then the
/// cluster filter of @p filter (the master policy, or a sub-master's
/// shard replica).
template <typename Filter>
std::function<mpsim::MwAdmit(const PairTask&)> admit_hook(Filter filter) {
  return [seen = std::unordered_set<std::uint64_t>(),
          filter](const PairTask& task) mutable {
    if (!seen.insert(task.pair_key()).second) {
      return mpsim::MwAdmit::kDuplicate;
    }
    if (!filter->needs_alignment(task)) return mpsim::MwAdmit::kFiltered;
    return mpsim::MwAdmit::kQueue;
  };
}

}  // namespace

mpsim::MwOptions protocol_options(const PaceParams& params) {
  mpsim::MwOptions opt;
  opt.phase = params.phase_label ? params.phase_label : "pace";
  opt.metrics_prefix = "pace";
  opt.masters = std::max(1, params.masters);
  opt.batch_size = params.batch_size;
  opt.generation_batches = params.generation_batches;
  opt.heartbeat_timeout = params.heartbeat_timeout;
  opt.heartbeat_retries = params.heartbeat_retries;
  opt.heartbeat_max_timeout = params.heartbeat_max_timeout;
  opt.deadline_seconds = params.phase_deadline;
  opt.task_bytes = kPairBytes;
  opt.verdict_bytes = kVerdictBytes;
  opt.event_bytes = kVerdictBytes;  // forwarded union events ARE verdicts
  return opt;
}

mpsim::RunResult run_parallel(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids, int p,
    const mpsim::MachineModel& model, const PaceParams& params,
    MasterPolicy& master_policy, const WorkerPolicy& worker_policy,
    EngineCounters* counters, exec::Pool* pool, const mpsim::FaultPlan* plan) {
  const mpsim::MwPhase phase("pace::run_parallel", protocol_options(params),
                             p, plan);
  if (phase.hierarchical() && !master_policy.make_shard()) {
    throw std::invalid_argument(
        std::string("pace::run_parallel: this phase (") +
        (params.phase_label ? params.phase_label : "pace") +
        ") applies verdicts order-dependently and does not support "
        "hierarchical masters; use masters=1");
  }
  const SharedIndex index(set, ids, params, pool, &phase);

  const auto apply = [&](const Verdict& v) { master_policy.apply(v); };
  mpsim::MwRoles<PairTask, Verdict> roles;
  roles.master = [&] {
    return mpsim::MwMaster<PairTask, Verdict>{admit_hook(&master_policy),
                                              apply};
  };
  // The root folds the forwarded union events into the authoritative
  // master policy. Its apply is idempotent (CCD union-find merges), which
  // the event replay after a sub-master death relies on.
  roles.root = [&] { return mpsim::MwRoot<Verdict>{apply}; };
  // A sub-master filters against its LOCAL replica, forwards the verdicts
  // that change it to the root as union events, and absorbs synced events
  // from other shards so its filter keeps pace with cross-shard merges.
  roles.shard = [&] {
    std::shared_ptr<ShardPolicy> shard = master_policy.make_shard();
    mpsim::MwShard<PairTask, Verdict> hooks;
    hooks.admit = admit_hook(shard);
    hooks.resolve = [shard](const Verdict& v) { return shard->absorb(v); };
    hooks.learn = [shard](const Verdict& v) { shard->absorb(v); };
    return hooks;
  };
  // Protocol stats map one-to-one onto EngineCounters; each sub-master
  // contributes its own share (they sum across ranks in the RunResult).
  roles.master_done = [](mpsim::Communicator& comm,
                         const mpsim::MwMasterStats& stats) {
    EngineCounters c;
    c.promising_pairs = stats.submitted;
    c.duplicate_pairs = stats.duplicates;
    c.filtered_pairs = stats.filtered;
    c.aligned_pairs = stats.dispatched;
    comm.count("promising_pairs", c.promising_pairs);
    comm.count("duplicate_pairs", c.duplicate_pairs);
    comm.count("filtered_pairs", c.filtered_pairs);
    comm.count("aligned_pairs", c.aligned_pairs);
    record_engine_counters(c);
  };
  // A worker's generation replays a bucket share (index-build chars and
  // pair enumeration charged virtually); its evaluation is one pooled
  // alignment call per chunk with the shared worker policy.
  roles.worker = [&] {
    mpsim::MwWorker<PairTask, Verdict> hooks;
    hooks.generate = [&index](mpsim::Communicator& c, int origin) {
      c.charge_index_chars(index.worker_chars(origin));
      std::vector<PairTask> pairs = index.worker_pairs(origin);
      c.charge_pairs(pairs.size());
      return pairs;
    };
    hooks.evaluate = [&worker_policy, pool](mpsim::Communicator& c,
                                            const std::vector<PairTask>& tasks,
                                            std::vector<Verdict>& verdicts) {
      evaluate_tasks(tasks, worker_policy, &c, pool, verdicts);
    };
    return hooks;
  };
  mpsim::RunResult result = phase.run(model, roles);

  if (counters) {
    counters->promising_pairs = result.counter("promising_pairs");
    counters->duplicate_pairs = result.counter("duplicate_pairs");
    counters->filtered_pairs = result.counter("filtered_pairs");
    counters->aligned_pairs = result.counter("aligned_pairs");
  }
  return result;
}

EngineCounters run_serial(const seq::SequenceSet& set,
                          const std::vector<seq::SeqId>& ids,
                          const PaceParams& params,
                          MasterPolicy& master_policy,
                          const WorkerPolicy& worker_policy, exec::Pool* pool,
                          const SerialHooks* hooks) {
  const SharedIndex index(set, ids, params, pool);
  const std::vector<PairTask> pairs =
      index.worker_pairs(SharedIndex::kSerialStream);

  const std::uint64_t start = hooks ? hooks->start_pair : 0;
  const std::uint64_t stride =
      hooks && hooks->checkpoint ? hooks->checkpoint_stride : 0;
  std::uint64_t last_ckpt = start;

  // Telemetry: serial progress is pairs INSPECTED over the full stream
  // (dup/filtered pairs advance it too), reported at batch granularity so
  // the per-pair cost stays one relaxed load. poll_deadline() runs on this
  // (the orchestrating) thread — the only place the watchdog may throw.
  if (pairs.size() > start) {
    util::telemetry::progress_enqueued(pairs.size() - start);
  }
  std::uint64_t reported = start;
  const auto report_progress = [&](std::uint64_t next_pair) {
    if (next_pair <= reported) return;
    util::telemetry::progress_done(next_pair - reported);
    reported = next_pair;
    util::telemetry::poll_deadline();
  };

  EngineCounters c;
  std::unordered_set<std::uint64_t> seen;

  // Admit-then-re-check: collect the pairs the filter admits, align them as
  // one batch (on the pool when there is one), then walk the verdicts in
  // task order and ask the filter again. Every earlier pair is resolved by
  // then, so the re-check sees exactly the state the one-pair-at-a-time
  // schedule would have filtered against: a pair it rejects was aligned
  // speculatively and is counted as filtered, not applied. Flushes also
  // fall on checkpoint boundaries, where every inspected pair is resolved.
  std::vector<PairTask> batch;
  std::vector<Verdict> verdicts;
  const auto flush = [&](std::uint64_t next_pair) {
    verdicts.clear();
    evaluate_tasks(batch, worker_policy, nullptr, pool, verdicts);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (!master_policy.needs_alignment(batch[k])) {
        ++c.filtered_pairs;
        ++c.speculative_pairs;
        continue;
      }
      ++c.aligned_pairs;
      master_policy.apply(verdicts[k]);
    }
    batch.clear();
    report_progress(next_pair);
  };
  for (std::uint64_t i = start; i < pairs.size(); ++i) {
    if ((i & 1023u) == 0) report_progress(i);  // filtered streaks count
    const PairTask& task = pairs[static_cast<std::size_t>(i)];
    ++c.promising_pairs;
    bool full = false;
    if (!seen.insert(task.pair_key()).second) {
      ++c.duplicate_pairs;
    } else if (!master_policy.needs_alignment(task)) {
      ++c.filtered_pairs;
    } else {
      batch.push_back(task);
      // Flush threshold, not grouping: verdicts apply in task order at any
      // batch size, so the governor shrinking the batch under memory
      // pressure trades throughput for footprint only.
      full = batch.size() >=
             util::governor().recommend_batch(params.batch_size);
    }
    const bool checkpoint_due = stride > 0 && i + 1 - last_ckpt >= stride;
    if (full || checkpoint_due) flush(i + 1);
    if (checkpoint_due) {
      hooks->checkpoint(i + 1);
      last_ckpt = i + 1;
    }
  }
  flush(pairs.size());
  return c;
}

}  // namespace pclust::pace
