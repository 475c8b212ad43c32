#include "pclust/pace/engine.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "pclust/align/scoring.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/mpsim/masterworker.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/key_set.hpp"
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

const char* phase_name(const PaceParams& params) {
  return params.phase_label ? params.phase_label : "pace";
}

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
    // The suffix sort runs on the calling lane at every pool size; the LCP
    // and bucket scans split across the pool's lanes.
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

    // Charged under the phase prefix (rr/ccd/bgg) while the index lives:
    // the GST replacement (SA + LCP + buckets) must stay linear in the
    // text, and it dominates the RR/CCD footprint.
    util::MemoryBreakdown b("suffix_index");
    b.add("concat_text", text.memory_usage());
    b.add("suffix_array", util::vector_bytes(sa));
    b.add("lcp", util::vector_bytes(lcp));
    b.add("buckets", util::vector_bytes(buckets));
    b.add("bucket_owners", util::vector_bytes(bucket_owner));
    charge_ = util::MemoryCharge(phase_name(params), b);
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
  /// appends in (the stable sort then ties on it), into one list sized
  /// exactly, so its footprint is the same at every lane count.
  [[nodiscard]] std::vector<PairTask> worker_pairs(int worker_rank) const {
    suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);
    std::vector<std::size_t> owned;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (bucket_owner[i] == worker_rank) owned.push_back(i);
    }

    // Several lanes get about kRunsPerLane runs each, so dynamic chunking
    // evens out uneven buckets; one lane enumerates every owned bucket as
    // one run.
    const std::size_t runs = std::min(
        owned.size(),
        lanes_.size() > 1 ? kRunsPerLane * std::size_t{lanes_.size()} : 1);
    auto per_run = exec::parallel_map<std::vector<PairTask>>(
        lanes_, runs, 1, [&](std::size_t r) {
          std::vector<PairTask> pairs;
          suffix::MaximalMatchEnumerator::Scratch scratch;
          const std::function<bool(const suffix::MaximalMatch&)> keep =
              [&pairs](const suffix::MaximalMatch& m) {
                pairs.push_back(
                    PairTask{m.a, m.b, m.a_pos, m.b_pos, m.length});
                return true;
              };
          for (std::size_t k = owned.size() * r / runs;
               k < owned.size() * (r + 1) / runs; ++k) {
            enumerator.enumerate(buckets[owned[k]].lb, buckets[owned[k]].rb,
                                 keep, scratch);
          }
          return pairs;
        });
    std::size_t total = 0;
    for (const auto& pairs : per_run) total += pairs.size();
    std::vector<PairTask> out;
    out.reserve(total);
    for (auto& pairs : per_run) {
      out.insert(out.end(), pairs.begin(), pairs.end());
      std::vector<PairTask>().swap(pairs);
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

/// Task slices per pool lane when evaluate_tasks builds jobs and reads
/// verdicts on several lanes: enough for dynamic chunking to even out RR's
/// gate scans, few enough that the per-slice job lists stay cheap.
constexpr std::size_t kSlicesPerLane = 4;

/// Score one chunk of tasks. Each task's jobs are built, and its verdict
/// read back, on the pool's lanes into index-addressed slots (RR's q-gram
/// gate runs inside jobs(), so it spreads across the lanes too); the jobs
/// are joined in task order and scored by one pooled align_score_batch
/// call. Cells and scanned residues are then charged to @p comm serially
/// in task order, so the verdicts and the virtual clock are independent
/// of pool scheduling. One lane builds every job into one list.
void evaluate_tasks(const std::vector<PairTask>& tasks,
                    const WorkerPolicy& policy, mpsim::Communicator* comm,
                    exec::Pool* pool, std::vector<Verdict>& verdicts) {
  const std::size_t n = tasks.size();
  if (n == 0) return;
  exec::Pool& lanes = exec::or_serial(pool);
  const std::size_t slices =
      lanes.size() > 1 ? std::min(n, kSlicesPerLane * lanes.size()) : 1;
  const std::size_t grain = (n + slices - 1) / slices;
  std::vector<std::vector<align::PairJob>> built((n + grain - 1) / grain);
  std::vector<std::size_t> first(n + 1);  // task k: [first[k], first[k + 1])
  lanes.for_range(built.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      for (std::size_t k = s * grain; k < std::min(n, (s + 1) * grain); ++k) {
        first[k] = built[s].size();
        policy.jobs(tasks[k], built[s]);
      }
    }
  });
  std::size_t total = 0;
  for (const auto& slice : built) total += slice.size();
  std::vector<align::PairJob> jobs = std::move(built.front());
  jobs.reserve(total);
  for (std::size_t s = 1; s < built.size(); ++s) {
    for (std::size_t k = s * grain; k < std::min(n, (s + 1) * grain); ++k) {
      first[k] += jobs.size();
    }
    jobs.insert(jobs.end(), built[s].begin(), built[s].end());
  }
  first[n] = jobs.size();

  std::vector<align::AlignmentResult> results(jobs.size());
  align::align_score_batch(jobs.data(), jobs.size(), align::blosum62(),
                           results.data(), pool);
  const std::size_t base = verdicts.size();
  verdicts.resize(base + n);
  lanes.for_range(n, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t count = first[k + 1] - first[k];
      const auto own = std::span<const align::AlignmentResult>(results)
                           .subspan(first[k], count);
      Verdict v = policy.verdict(
          tasks[k],
          std::span<const align::PairJob>(jobs).subspan(first[k], count),
          own);
      v.alignments = static_cast<std::uint32_t>(count);
      for (const align::AlignmentResult& r : own) v.cells += r.cells;
      verdicts[base + k] = v;
    }
  });
  if (!comm) return;
  for (std::size_t k = base; k < verdicts.size(); ++k) {
    comm->charge_cells(verdicts[k].cells);
    if (verdicts[k].scanned > 0) comm->charge_hashes(verdicts[k].scanned);
    comm->count("alignments_computed");
  }
}

/// A pace master's admit hook: the pair-duplicate seen-set, then the
/// cluster filter of @p filter (the master policy, or a sub-master's
/// shard replica).
template <typename Filter>
std::function<mpsim::MwAdmit(const PairTask&)> admit_hook(Filter filter) {
  return [seen = util::KeySet(), filter](const PairTask& task) mutable {
    if (!seen.insert(task.pair_key())) {
      return mpsim::MwAdmit::kDuplicate;
    }
    if (!filter->needs_alignment(task)) return mpsim::MwAdmit::kFiltered;
    return mpsim::MwAdmit::kQueue;
  };
}

}  // namespace

mpsim::MwOptions protocol_options(const PaceParams& params) {
  mpsim::MwOptions opt;
  opt.phase = phase_name(params);
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
        phase_name(params) +
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
  // the per-pair cost stays one relaxed load. poll_deadline() runs on the
  // thread that runs this loop: the orchestrating thread, or a drain lane
  // whose pooled loop rethrows the watchdog's throw there.
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
  util::KeySet seen;
  // The stream and its seen-set stay charged until the loop returns.
  util::MemoryCharge stream(
      phase_name(params),
      util::MemoryBreakdown("pair_stream")
          .add("pairs", util::vector_bytes(pairs))
          .add("seen", seen.bytes()));

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
    stream.set("seen", seen.bytes());
    report_progress(next_pair);
  };
  for (std::uint64_t i = start; i < pairs.size(); ++i) {
    if ((i & 1023u) == 0) report_progress(i);  // filtered streaks count
    const PairTask& task = pairs[static_cast<std::size_t>(i)];
    ++c.promising_pairs;
    bool full = false;
    if (!seen.insert(task.pair_key())) {
      ++c.duplicate_pairs;
    } else if (!master_policy.needs_alignment(task)) {
      ++c.filtered_pairs;
    } else {
      batch.push_back(task);
      full = batch.size() >= params.batch_size;
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
