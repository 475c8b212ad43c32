// Resilient master–worker protocol over the message-passing simulator.
//
// PaCE's RR and CCD (paper §IV-B) and the batched Shingle stage (§V) run
// one protocol, and this header is the only code that knows its rank
// layout: each rank's role and level (MwTopology), and which worker owns
// which generation stream (MwTopology::assign_lpt). A phase hands its
// MwRoles hooks to MwPhase, the only way a phase runs the protocol, which
// checks the topology and the fault plan and runs each rank in its role
// through run_phase.
//
//   - Workers own deterministic GENERATION STREAMS (a pure function of a
//     shared read-only index), submit tasks in rounds, and evaluate the
//     chunks the master hands back. Submissions and work chunks carry
//     per-worker sequence numbers, so duplicated deliveries are recognized
//     and dropped on both sides (at-least-once links are safe).
//   - The master admits each task exactly once (the hook deduplicates and
//     filters), dispatches bounded chunks, and tracks the unacknowledged
//     chunk per worker. A worker death — planned crash, error, or heartbeat
//     timeout (with bounded retry + exponential backoff first) — requeues
//     its outstanding chunk ahead of the FIFO and hands each of its
//     generation streams to the least-loaded survivor, which replays the
//     stream from the master's received watermark. The seen-set in the
//     admit hook and idempotent verdict application absorb replay overlap.
//   - A wall-clock phase deadline turns a hung phase into an attributed
//     RankError instead of a silent hang.
//
// Hierarchical mode (MwOptions::masters >= 2) adds a two-level master tree
// that removes the single-master admit bottleneck AND its single point of
// failure:
//
//   rank 0            the ROOT: owns the authoritative result state and an
//                     append-only event log; folds only the events the
//                     sub-masters forward.
//   ranks 1..M        SUB-MASTERS: each runs the full resilient master
//                     engine over its worker shard, admitting/filtering
//                     locally against a local state replica, and forwards
//                     only the verdicts that CHANGED its replica — the
//                     cross-shard union events — to the root as
//                     seq-numbered idempotent records (one batch per
//                     lockstep round).
//   ranks M+1..p-1    workers, homed round-robin onto the sub-masters.
//
//   Sub-masters are FAILABLE. On sub-master death the root re-homes the
//   shard's orphaned workers onto surviving sub-masters, reroutes every
//   generation stream the shard owned for a full replay (from index 0 —
//   safe by idempotence), and replays its forwarded event log onto the
//   adopting shards through the standing sync channel, so no accepted
//   union is ever lost and the final result state is bit-identical to the
//   flat single-master run. A shard that loses every worker surrenders its
//   streams to the root and stays alive as a quiescent spare that can
//   adopt future orphans.
//
// Verdict APPLICATION order still follows message arrival, so a phase is
// bit-identical under faults exactly when its apply is confluent (CCD's
// union-find, DSD's keyed family slots) — see DESIGN.md §11/§13 for the
// per-phase guarantees. Order-dependent phases (RR) must stay flat.
#pragma once

#include <algorithm>
#include <any>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pclust/mpsim/communicator.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/mpsim/runtime.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/telemetry.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::mpsim {

/// Master-side triage of one submitted task.
enum class MwAdmit : std::uint8_t {
  kQueue = 0,   ///< fresh and useful: dispatch it to a worker
  kDuplicate,   ///< already seen (stream replay or duplicated delivery)
  kFiltered,    ///< skipped by the phase's cluster filter
};

/// Rank-tree shape of one protocol run. masters == 1 is the flat layout
/// (rank 0 the single master); masters >= 2 is the two-level tree (rank 0
/// the root, ranks 1..masters the sub-masters). Requires p >= masters + 2
/// in hierarchical mode so at least one worker exists.
struct MwTopology {
  int p = 0;
  int masters = 1;

  [[nodiscard]] bool hierarchical() const { return masters >= 2; }
  [[nodiscard]] int first_worker() const {
    return hierarchical() ? masters + 1 : 1;
  }
  [[nodiscard]] int worker_count() const { return p - first_worker(); }
  [[nodiscard]] bool is_submaster(int rank) const {
    return hierarchical() && rank >= 1 && rank <= masters;
  }
  [[nodiscard]] bool is_worker(int rank) const {
    return rank >= first_worker() && rank < p;
  }
  /// The master rank a worker reports to (round-robin homes in a tree).
  [[nodiscard]] int submaster_of(int worker) const {
    if (!hierarchical()) return 0;
    return 1 + (worker - first_worker()) % masters;
  }
  /// Worker ranks homed on master rank @p m, ascending.
  [[nodiscard]] std::vector<int> workers_of(int m) const {
    std::vector<int> out;
    for (int w = first_worker(); w < p; ++w) {
      if (submaster_of(w) == m) out.push_back(w);
    }
    return out;
  }
  /// Human-readable level of a rank, used by reports and RankError
  /// attribution ("master"/"worker" flat; "root"/"sub-master"/"worker").
  [[nodiscard]] const char* level_of(int rank) const {
    if (!hierarchical()) return rank == 0 ? "master" : "worker";
    if (rank == 0) return "root";
    return rank <= masters ? "sub-master" : "worker";
  }
  /// Longest-processing-time split of weighted items (a phase's stream
  /// shares) over the worker ranks: items in decreasing weight, ties by
  /// index, each to the least-loaded worker, the lowest rank on ties.
  /// Returns each item's owner rank; needs a worker rank.
  [[nodiscard]] std::vector<int> assign_lpt(
      const std::vector<std::uint64_t>& weights) const {
    std::vector<std::size_t> order(weights.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](auto x, auto y) {
      return weights[x] > weights[y];
    });
    std::vector<std::uint64_t> load(static_cast<std::size_t>(worker_count()));
    std::vector<int> owner(weights.size());
    for (const std::size_t i : order) {
      const auto w = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      owner[i] = first_worker() + static_cast<int>(w);
      load[w] += weights[i];
    }
    return owner;
  }
};

struct MwOptions {
  /// Phase label for fault events and errors (e.g. "rr", "ccd", "dsd").
  std::string phase = "mw";
  /// Process-metrics key prefix (e.g. "pace" keeps the PR-2 metric names).
  std::string metrics_prefix = "mw";
  /// Master ranks: 1 = flat single master (the default, byte-identical to
  /// the pre-hierarchy protocol); >= 2 = two-level master tree (see file
  /// comment). Workers derive their home sub-master from this.
  int masters = 1;
  /// Tasks per worker->master submission and per master->worker chunk.
  std::size_t batch_size = 256;
  /// Batches a worker submits per protocol round (>= 1).
  std::uint32_t generation_batches = 1;
  /// Master-side liveness backstop, WALL-clock seconds; <= 0 waits forever.
  double heartbeat_timeout = 0.0;
  /// Extra timed-out receives (the timeout doubles on each) before a
  /// silent worker is declared dead. Transient scheduling stalls heal here.
  std::uint32_t heartbeat_retries = 2;
  /// Ceiling on the doubled per-retry timeout, wall seconds; 0 leaves the
  /// exponential growth uncapped.
  double heartbeat_max_timeout = 0.0;
  /// Whole-phase WALL-clock watchdog, seconds; 0 disables. On expiry the
  /// master throws PhaseDeadlineExceeded, which surfaces as a RankError
  /// attributed to this phase. The deadline is also checked at every
  /// heartbeat-retry boundary, so a retry ladder cannot overshoot it.
  double deadline_seconds = 0.0;
  /// Wire-size estimates for the virtual clock (bytes per element).
  std::uint64_t task_bytes = 16;
  std::uint64_t verdict_bytes = 8;
  std::uint64_t event_bytes = 16;  // sub-master -> root union event
};

/// Thrown by the master when MwOptions::deadline_seconds expires; the
/// runtime wraps it in a RankError carrying the phase label.
class PhaseDeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Master-side protocol statistics, returned by mw_master_loop and
/// mw_submaster_loop. The caller maps them onto its phase counters (they
/// are protocol-level quantities: every submitted task is exactly one of
/// duplicate/filtered/dispatched).
struct MwMasterStats {
  std::uint64_t submitted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t filtered = 0;
  std::uint64_t dispatched = 0;
};

/// Master hooks. `admit` triages one submitted task (and owns the phase's
/// dedup set); `apply` folds one verdict into the result state. Both are
/// called on the master rank only, in message-arrival order.
template <typename Task, typename Verdict>
struct MwMaster {
  std::function<MwAdmit(const Task&)> admit;
  std::function<void(const Verdict&)> apply;
};

/// Worker hooks. `generate(comm, origin)` (re)builds rank @p origin's task
/// stream — a pure function of the shared index, charging its own virtual
/// cost — which is what makes stream adoption possible. `evaluate` answers
/// one work chunk with one verdict per task, charging compute on @p comm.
template <typename Task, typename Verdict>
struct MwWorker {
  std::function<std::vector<Task>(Communicator&, int origin)> generate;
  std::function<void(Communicator&, const std::vector<Task>&,
                     std::vector<Verdict>&)>
      evaluate;
};

/// Sub-master hooks (hierarchical mode). `admit` triages against the LOCAL
/// shard replica; `resolve` folds a worker verdict into the replica and
/// returns true when it changed the state (the verdict is then forwarded
/// to the root as a union event); `learn` folds a root-synced event from
/// another shard into the replica. All run on the sub-master rank only.
template <typename Task, typename Verdict>
struct MwShard {
  std::function<MwAdmit(const Task&)> admit;
  std::function<bool(const Verdict&)> resolve;
  std::function<void(const Verdict&)> learn;
};

/// Root hooks (hierarchical mode): folds one forwarded union event into the
/// authoritative result state. Must be idempotent — event replay after a
/// sub-master death re-applies records.
template <typename Verdict>
struct MwRoot {
  std::function<void(const Verdict&)> apply;
};

/// Root-side hierarchy statistics, returned by mw_root_loop.
struct MwRootStats {
  std::uint64_t events_applied = 0;    ///< union events folded at the root
  std::uint64_t events_synced = 0;     ///< event-log records shipped down
  std::uint64_t submasters_failed = 0;
  std::uint64_t submasters_timed_out = 0;
  std::uint64_t workers_rehomed = 0;   ///< orphans moved to a new shard
  std::uint64_t streams_rerouted = 0;  ///< full-replay stream grants
};

namespace detail {

constexpr int kMwTagRound = 1;
constexpr int kMwTagWork = 2;
constexpr int kMwTagBatch = 3;    // sub-master -> root, one per round
constexpr int kMwTagControl = 4;  // root -> sub-master reply
constexpr int kMwTagRehome = 5;   // root -> orphaned worker

/// Wire size of every protocol message's header, bytes: seq + stream ids +
/// flags.
constexpr std::uint64_t kMwHeaderBytes = 25;

/// A generation stream a worker must (re)play after its original owner
/// died: origin's stream starting at task index @p from (the master's
/// received watermark; 0 for cross-shard reroutes, whose new shard has no
/// watermark — the full replay is absorbed by admit dedup).
struct MwStreamAssign {
  int origin = -1;
  std::uint64_t from = 0;
};

template <typename Task, typename Verdict>
struct MwRoundMsg {
  std::uint64_t seq = 0;  // per-worker submission number, 1-based
  int stream = -1;        // origin rank of `tasks` (-1: none this round)
  std::uint64_t start = 0;  // index of tasks.front() within that stream
  std::vector<Task> tasks;
  std::vector<Verdict> verdicts;  // answer the work chunk with seq ack_seq
  std::uint64_t ack_seq = 0;      // 0 = no chunk answered this round
  bool exhausted = false;         // all assigned streams fully submitted
  // Telemetry piggyback: the sender's cumulative virtual-clock
  // decomposition at send time. The declared wire bytes are unchanged, so
  // carrying these does not perturb the virtual clocks or the results.
  double busy = 0.0;
  double comm = 0.0;
  double idle = 0.0;
};

template <typename Task>
struct MwWorkMsg {
  std::uint64_t seq = 0;  // per-worker order number, 1-based
  std::vector<Task> tasks;
  std::vector<MwStreamAssign> adopt;  // dead workers' streams to replay
  bool done = false;
};

/// One lockstep round's worth of shard state, sub-master -> root.
template <typename Verdict>
struct MwBatchMsg {
  std::uint64_t seq = 0;  // per-shard batch number, 1-based
  std::vector<Verdict> events;  // verdicts that changed the shard replica
  bool quiescent = false;       // shard has no pending/outstanding work
  std::vector<int> workers_lost;  // ranks observed dead this round
  std::vector<MwStreamAssign> surrendered;  // streams with no worker left
  // Telemetry piggyback (see MwRoundMsg): the sub-master's cumulative
  // virtual-clock decomposition at send time.
  double busy = 0.0;
  double comm = 0.0;
  double idle = 0.0;
};

/// Root -> sub-master reply closing one lockstep round.
template <typename Verdict>
struct MwControlMsg {
  std::uint64_t seq = 0;  // per-shard control number, 1-based
  bool done = false;
  std::vector<int> adopt_workers;  // orphans re-homed onto this shard
  std::vector<MwStreamAssign> adopt_streams;  // streams to replay here
  std::vector<Verdict> sync;  // event-log records from other shards
};

/// Root -> orphaned worker: your sub-master died; report to new_master.
struct MwRehomeMsg {
  std::uint64_t seq = 0;  // per-worker rehome number, 1-based
  int new_master = -1;
};

/// Virtual-time trace instant on the current phase timeline (tid = rank).
inline void mw_trace_event(const Communicator& comm, std::string_view name,
                           std::string_view cat) {
  if (!util::trace::enabled()) return;
  util::trace::instant(util::trace::current_pid(), comm.rank(), name, cat,
                       comm.clock().now() * 1e6);
}

/// A master's watch over its links, armed at construction: the wall-clock
/// phase deadline and the heartbeat ladder (MwOptions) that mw_recv_fresh
/// runs on a silent link. The flat master, each sub-master and the root
/// own one.
struct MwWatch {
  explicit MwWatch(const MwOptions& options)
      : opt(options),
        link_retries(util::metrics().counter(options.metrics_prefix +
                                             ".link_retries")),
        start(std::chrono::steady_clock::now()) {}

  /// Throws PhaseDeadlineExceeded once MwOptions::deadline_seconds of wall
  /// time have passed: at a round boundary (@p src < 0), or at the
  /// heartbeat-retry boundary after @p retry retries on link
  /// comm.rank()<-src.
  void check_deadline(const Communicator& comm, int src = -1,
                      std::uint32_t retry = 0) const {
    if (opt.deadline_seconds <= 0.0) return;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() <= opt.deadline_seconds) return;
    const std::string where =
        src < 0 ? "(possible hung rank)"
                : "at a heartbeat-retry boundary on link " +
                      std::to_string(comm.rank()) + "<-" +
                      std::to_string(src) + " (after retry " +
                      std::to_string(retry) + " of " +
                      std::to_string(opt.heartbeat_retries) + ")";
    throw PhaseDeadlineExceeded(opt.phase + ": phase deadline of " +
                                std::to_string(opt.deadline_seconds) +
                                "s exceeded " + where +
                                "; master virtual time " +
                                std::to_string(comm.clock().now()) + "s");
  }

  const MwOptions& opt;
  // Registered up front so fault-free reports list the zero counter.
  util::Counter& link_retries;
  std::chrono::steady_clock::time_point start;
};

/// One protocol event, counted by one add() on the rank (RunResult::
/// counters, key `name`) and in the registry (<metrics_prefix>.<name>).
/// Construction registers the key, so fault-free reports list it at zero.
struct MwEvent {
  MwEvent(const MwOptions& opt, std::string key)
      : name(std::move(key)),
        metric(util::metrics().counter(opt.metrics_prefix + "." + name)) {}
  /// Counts @p n occurrences on @p comm's rank; returns @p n.
  std::uint64_t add(Communicator& comm, std::uint64_t n = 1) const {
    comm.count(name, n);
    metric.add(n);
    return n;
  }
  std::string name;
  util::Counter& metric;
};

/// Receive the next fresh message on link (src, tag). A duplicated
/// delivery replays a seq <= @p last_seq and is skipped: the fresh copy
/// (or the failure mark) is guaranteed to follow. With a @p watch whose
/// heartbeat is on, a silent link gets bounded retries before it counts as
/// dead — a timeout may be a transient stall — with the timeout doubling
/// each time (capped by heartbeat_max_timeout) and the phase deadline
/// checked at every retry boundary, so the ladder cannot overshoot it.
/// Returns kOk (message in @p out, @p last_seq advanced), kRankFailed, or
/// kTimeout once the ladder is spent; the caller handles the failure.
template <typename Msg>
RecvStatus mw_recv_fresh(Communicator& comm, int src, int tag,
                         std::uint64_t& last_seq, Msg& out,
                         const MwWatch* watch = nullptr) {
  const double first = watch && watch->opt.heartbeat_timeout > 0
                           ? watch->opt.heartbeat_timeout
                           : -1.0;
  double timeout = first;
  std::uint32_t retry = 0;
  for (;;) {
    Message msg;
    const RecvStatus st = comm.recv_status(src, tag, msg, timeout);
    if (st == RecvStatus::kOk) {
      out = msg.take<Msg>();
      if (out.seq > last_seq) {
        last_seq = out.seq;
        return st;
      }
      timeout = first;  // a stale duplicate restarts the ladder
      retry = 0;
      continue;
    }
    // Only a heartbeat, hence a watch, can time out.
    if (st == RecvStatus::kRankFailed || watch == nullptr ||
        retry == watch->opt.heartbeat_retries) {
      return st;
    }
    watch->check_deadline(comm, src, retry);
    comm.count("link_timeout_retries");
    watch->link_retries.add(1);
    comm.note(watch->opt.phase + ": link " + std::to_string(comm.rank()) +
              "<-" + std::to_string(src) + " timed out after " +
              std::to_string(timeout) + "s (retry " +
              std::to_string(retry + 1) + " of " +
              std::to_string(watch->opt.heartbeat_retries) + ", vt=" +
              std::to_string(comm.clock().now()) + "s)");
    timeout *= 2.0;
    if (watch->opt.heartbeat_max_timeout > 0.0) {
      timeout = std::min(timeout, watch->opt.heartbeat_max_timeout);
    }
    ++retry;
  }
}

/// The resilient master engine over one set of worker ranks: receive one
/// round per live worker (heartbeat retry/backoff, death healing), admit
/// and queue tasks, apply verdicts, dispatch bounded chunks. Used directly
/// by the flat master (workers = 1..p-1, no-survivor => error) and by each
/// sub-master (its shard's workers, no-survivor => surrender the streams
/// to the root). A faithful extraction of the PR-2 flat loop: the flat
/// message pattern, charges, notes, and metrics are unchanged.
template <typename Task, typename Verdict>
class MwMasterEngine {
 public:
  using RoundMsg = MwRoundMsg<Task, Verdict>;
  using WorkMsg = MwWorkMsg<Task>;

  MwMasterEngine(Communicator& comm, const MwOptions& opt,
                 std::vector<int> workers, bool surrender,
                 std::function<MwAdmit(const Task&)> admit,
                 std::function<void(const Verdict&)> apply)
      : comm_(comm),
        opt_(opt),
        surrender_(surrender),
        admit_(std::move(admit)),
        apply_(std::move(apply)),
        ws_(static_cast<std::size_t>(comm.size())),
        received_(static_cast<std::size_t>(comm.size()), 0),
        workers_(std::move(workers)),
        ev_requeued_(opt, "pairs_requeued"),
        ev_adopted_(opt, "streams_adopted"),
        ev_surrendered_(opt, "streams_surrendered"),
        ev_failed_(opt, "workers_failed"),
        ev_timed_out_(opt, "workers_timed_out"),
        queue_depth_(
            util::metrics().gauge(opt.metrics_prefix + ".master.queue_depth")),
        batch_sizes_(
            util::metrics().histogram(opt.metrics_prefix + ".work_batch_size")),
        round_trips_(
            util::metrics().histogram(opt.metrics_prefix + ".round_trip_us")),
        watch_(opt) {
    std::sort(workers_.begin(), workers_.end());
    for (const int w : workers_) {
      ws_[static_cast<std::size_t>(w)].streams = {w};
    }
    alive_ = static_cast<int>(workers_.size());
  }

  [[nodiscard]] const MwMasterStats& stats() const { return stats_; }
  [[nodiscard]] bool has_live_worker() const { return alive_ > 0; }

  void check_deadline() const { watch_.check_deadline(comm_); }

  /// Receive and fold in this round's submissions from live workers (rank
  /// ascending). Heals observed deaths. Throws when every worker died and
  /// the engine is not in surrender mode.
  void receive_rounds() {
    for (const int w : workers_) {
      if (ws_[static_cast<std::size_t>(w)].alive) receive_one(w);
    }
    if (!surrender_ && alive_ == 0) throw all_dead_error();
    queue_depth_.set(pending_.size());
  }

  /// True when no work remains anywhere: empty FIFO, every live worker
  /// exhausted with nothing outstanding and no pending stream adoption.
  [[nodiscard]] bool quiescent() const {
    bool done = pending_.empty();
    for (std::size_t i = 0; done && i < workers_.size(); ++i) {
      const WorkerState& state =
          ws_[static_cast<std::size_t>(workers_[i])];
      if (!state.alive) continue;
      done = state.exhausted && state.outstanding_seq == 0 &&
             state.adopt.empty();
    }
    return done;
  }

  /// Hand out the next chunks (empty + done on the final round).
  void dispatch(bool done) {
    for (const int w : workers_) {
      WorkerState& state = ws_[static_cast<std::size_t>(w)];
      if (!state.alive) continue;
      WorkMsg work;
      work.seq = ++state.work_seq;
      work.done = done;
      work.adopt = std::move(state.adopt);
      state.adopt.clear();
      if (!done && state.outstanding_seq == 0) {
        while (!pending_.empty() && work.tasks.size() < opt_.batch_size) {
          work.tasks.push_back(pending_.front());
          pending_.pop_front();
        }
      }
      if (!work.tasks.empty()) {
        state.outstanding = work.tasks;
        state.outstanding_seq = work.seq;
        state.dispatch_vt = comm_.clock().now();
        batch_sizes_.add(work.tasks.size());
      }
      stats_.dispatched += work.tasks.size();
      const std::uint64_t bytes =
          work.tasks.size() * opt_.task_bytes + kMwHeaderBytes;
      comm_.send(w, kMwTagWork, std::any(std::move(work)), bytes);
    }
  }

  /// Adopt a re-homed orphan worker (hierarchical failover). The orphan
  /// joins with no streams — the root reroutes the dead shard's streams
  /// separately — and fresh protocol sequence state on both sides.
  void add_worker(int w) {
    WorkerState& state = ws_[static_cast<std::size_t>(w)];
    if (state.alive &&
        std::find(workers_.begin(), workers_.end(), w) != workers_.end()) {
      return;  // duplicated grant
    }
    state = WorkerState{};
    state.streams.clear();
    const auto at =
        std::lower_bound(workers_.begin(), workers_.end(), w);
    if (at == workers_.end() || *at != w) workers_.insert(at, w);
    ++alive_;
    comm_.note(opt_.phase + ": orphan worker rank " + std::to_string(w) +
               " adopted by sub-master rank " + std::to_string(comm_.rank()) +
               " at vt=" + std::to_string(comm_.clock().now()) + "s");
    mw_trace_event(comm_, "worker_adopted", "heal");
  }

  /// Assign origin's generation stream (replay from @p from) to the
  /// least-loaded live worker; with no survivor, surrender it to the root
  /// (surrender mode) or fail the phase (flat mode).
  void assign_stream(int origin, std::uint64_t from) {
    int target = -1;
    for (const int w : workers_) {
      WorkerState& cand = ws_[static_cast<std::size_t>(w)];
      if (!cand.alive) continue;
      if (target < 0 ||
          cand.streams.size() <
              ws_[static_cast<std::size_t>(target)].streams.size()) {
        target = w;
      }
    }
    if (target < 0) {
      if (!surrender_) throw all_dead_error();
      surrendered_.push_back(MwStreamAssign{origin, 0});
      ev_surrendered_.add(comm_);
      comm_.note(opt_.phase + ": stream of rank " + std::to_string(origin) +
                 " surrendered to the root (no surviving worker in this "
                 "shard) at vt=" +
                 std::to_string(comm_.clock().now()) + "s");
      mw_trace_event(comm_, "stream_surrendered", "heal");
      return;
    }
    WorkerState& t = ws_[static_cast<std::size_t>(target)];
    t.streams.push_back(origin);
    t.adopt.push_back(MwStreamAssign{origin, from});
    t.exhausted = false;  // new tasks are (potentially) coming
    ev_adopted_.add(comm_);
    comm_.note(opt_.phase + ": stream of rank " + std::to_string(origin) +
               " adopted by rank " + std::to_string(target) + " at vt=" +
               std::to_string(comm_.clock().now()) + "s");
    mw_trace_event(comm_, "stream_adopted", "heal");
  }

  /// Ranks observed dead since the last call (for MwBatchMsg reporting).
  std::vector<int> take_workers_lost() {
    return std::exchange(workers_lost_, {});
  }
  /// Streams surrendered since the last call (no surviving shard worker).
  std::vector<MwStreamAssign> take_surrendered() {
    return std::exchange(surrendered_, {});
  }

 private:
  struct WorkerState {
    bool alive = true;
    bool exhausted = false;
    std::uint64_t last_round_seq = 0;  // highest RoundMsg seq consumed
    std::uint64_t work_seq = 0;        // seq of the last WorkMsg sent
    std::uint64_t outstanding_seq = 0;  // unacked chunk's seq (0 = none)
    double dispatch_vt = 0.0;           // master vt when the chunk left
    std::vector<Task> outstanding;      // its tasks, requeued on death
    std::vector<int> streams;           // generation streams assigned here
    std::vector<MwStreamAssign> adopt;  // ship with next WorkMsg
  };

  [[nodiscard]] std::runtime_error all_dead_error() const {
    return std::runtime_error(opt_.phase +
                              ": all workers failed; cannot complete the "
                              "phase");
  }

  // Self-healing: requeue the dead worker's unacked chunk ahead of the
  // FIFO and hand each of its generation streams to the least-loaded
  // survivor, which replays it from the received watermark. The admit
  // hook's dedup and idempotent verdict application swallow any replay
  // overlap. With no survivor a surrender-mode engine hands the streams
  // (and implicitly its dropped FIFO — replay re-derives every queued
  // task) back to the root.
  void reassign(int dead) {
    WorkerState& d = ws_[static_cast<std::size_t>(dead)];
    ev_requeued_.add(comm_, d.outstanding.size());
    for (auto it = d.outstanding.rbegin(); it != d.outstanding.rend(); ++it) {
      pending_.push_front(*it);
    }
    d.outstanding.clear();
    d.outstanding_seq = 0;
    for (const int origin : d.streams) {
      assign_stream(origin, received_[static_cast<std::size_t>(origin)]);
    }
    d.streams.clear();
    d.exhausted = true;  // nothing more expected from it
    workers_lost_.push_back(dead);
    if (surrender_ && alive_ == 0 && !pending_.empty()) {
      comm_.note(opt_.phase + ": dropping " +
                 std::to_string(pending_.size()) +
                 " queued tasks; the root re-derives them from the "
                 "surrendered streams (vt=" +
                 std::to_string(comm_.clock().now()) + "s)");
      pending_.clear();
    }
  }

  void receive_one(int w) {
    WorkerState& state = ws_[static_cast<std::size_t>(w)];
    RoundMsg round;
    const RecvStatus st = mw_recv_fresh(comm_, w, kMwTagRound,
                                        state.last_round_seq, round, &watch_);
    if (st != RecvStatus::kOk) {
      state.alive = false;
      --alive_;
      if (st == RecvStatus::kTimeout) {
        // The rank may merely be hung; a final done message releases it
        // if it ever wakes, so the run can still terminate.
        WorkMsg bye;
        bye.seq = ++state.work_seq;
        bye.done = true;
        comm_.send(w, kMwTagWork, std::any(std::move(bye)),
                   kMwHeaderBytes);
        ev_timed_out_.add(comm_);
        comm_.note(opt_.phase + ": worker rank " + std::to_string(w) +
                   " declared dead after heartbeat timeout on link " +
                   std::to_string(comm_.rank()) + "<-" + std::to_string(w) +
                   " (vt=" + std::to_string(comm_.clock().now()) + "s)");
        mw_trace_event(comm_, "worker_timed_out", "heal");
      } else {
        ev_failed_.add(comm_);
        comm_.note(opt_.phase + ": worker rank " + std::to_string(w) +
                   " failed; requeueing " +
                   std::to_string(state.outstanding.size()) +
                   " outstanding tasks (vt=" +
                   std::to_string(comm_.clock().now()) + "s)");
        mw_trace_event(comm_, "worker_failed", "heal");
      }
      reassign(w);
      return;
    }

    util::telemetry::record_rank(w, "worker", round.busy, round.comm,
                                 round.idle);
    state.exhausted = round.exhausted;
    if (round.ack_seq != 0 && round.ack_seq == state.outstanding_seq) {
      // Virtual dispatch->ack latency of the acknowledged chunk, from this
      // master's clock. Always-on metric; observation only.
      const double rtt = comm_.clock().now() - state.dispatch_vt;
      round_trips_.add(static_cast<std::uint64_t>(rtt * 1e6));
      util::telemetry::record_round_trip(rtt);
      state.outstanding.clear();
      state.outstanding_seq = 0;
    }
    for (const Verdict& v : round.verdicts) {
      comm_.charge_finds(1);
      apply_(v);
    }
    if (!round.verdicts.empty()) {
      util::telemetry::progress_done_virtual(round.verdicts.size(),
                                             comm_.clock().now());
    }
    if (round.stream >= 0) {
      std::uint64_t& mark = received_[static_cast<std::size_t>(round.stream)];
      mark = std::max(mark, round.start + round.tasks.size());
    }
    std::uint64_t queued = 0;
    for (const Task& task : round.tasks) {
      ++stats_.submitted;
      comm_.charge_finds(1);
      switch (admit_(task)) {
        case MwAdmit::kDuplicate:
          ++stats_.duplicates;
          break;
        case MwAdmit::kFiltered:
          ++stats_.filtered;
          break;
        case MwAdmit::kQueue:
          pending_.push_back(task);
          ++queued;
          break;
      }
    }
    if (queued > 0) util::telemetry::progress_enqueued(queued);
  }

  Communicator& comm_;
  const MwOptions& opt_;
  bool surrender_;
  std::function<MwAdmit(const Task&)> admit_;
  std::function<void(const Verdict&)> apply_;
  std::vector<WorkerState> ws_;
  // received_[origin]: tasks [0, received_) of origin's stream have reached
  // this master; a post-crash intra-shard replay starts here.
  std::vector<std::uint64_t> received_;
  std::vector<int> workers_;  // this engine's worker ranks, ascending
  int alive_ = 0;
  std::deque<Task> pending_;
  MwMasterStats stats_;
  std::vector<int> workers_lost_;
  std::vector<MwStreamAssign> surrendered_;
  MwEvent ev_requeued_;
  MwEvent ev_adopted_;
  MwEvent ev_surrendered_;
  MwEvent ev_failed_;
  MwEvent ev_timed_out_;
  util::Gauge& queue_depth_;
  util::SizeHistogram& batch_sizes_;
  util::SizeHistogram& round_trips_;
  MwWatch watch_;
};

}  // namespace detail

/// Run the resilient master loop on rank 0 (flat mode, masters == 1).
/// Returns once every live worker is exhausted and every dispatched chunk
/// is acknowledged. Throws std::runtime_error when every worker died,
/// PhaseDeadlineExceeded when the watchdog fires.
template <typename Task, typename Verdict>
MwMasterStats mw_master_loop(Communicator& comm, const MwOptions& opt,
                             const MwMaster<Task, Verdict>& hooks) {
  detail::MwMasterEngine<Task, Verdict> engine(
      comm, opt, MwTopology{comm.size(), 1}.workers_of(0),
      /*surrender=*/false, hooks.admit, hooks.apply);
  bool done = false;
  while (!done) {
    engine.check_deadline();
    engine.receive_rounds();
    util::telemetry::virtual_tick(comm.clock().now());
    done = engine.quiescent();
    engine.dispatch(done);
  }
  return engine.stats();
}

/// Run one sub-master (ranks 1..masters, hierarchical mode): the resilient
/// master engine over this shard's workers, plus one lockstep batch/control
/// exchange with the root per round. Returns this shard's protocol stats.
template <typename Task, typename Verdict>
MwMasterStats mw_submaster_loop(Communicator& comm, const MwOptions& opt,
                                const MwTopology& topo,
                                const MwShard<Task, Verdict>& hooks) {
  using BatchMsg = detail::MwBatchMsg<Verdict>;
  using ControlMsg = detail::MwControlMsg<Verdict>;
  const detail::MwEvent forwarded(opt, "events_forwarded");
  std::vector<Verdict> outbox;
  detail::MwMasterEngine<Task, Verdict> engine(
      comm, opt, topo.workers_of(comm.rank()), /*surrender=*/true,
      hooks.admit, [&](const Verdict& v) {
        if (hooks.resolve(v)) outbox.push_back(v);
      });
  std::uint64_t batch_seq = 0;
  std::uint64_t last_control_seq = 0;
  for (;;) {
    engine.receive_rounds();

    BatchMsg batch;
    batch.seq = ++batch_seq;
    batch.events = std::move(outbox);
    outbox.clear();
    batch.quiescent = engine.quiescent();
    batch.workers_lost = engine.take_workers_lost();
    batch.surrendered = engine.take_surrendered();
    batch.busy = comm.busy_time();
    batch.comm = comm.comm_time();
    batch.idle = comm.idle_time();
    forwarded.add(comm, batch.events.size());
    const std::uint64_t up_bytes =
        batch.events.size() * opt.event_bytes + detail::kMwHeaderBytes;
    comm.send(0, detail::kMwTagBatch, std::any(std::move(batch)), up_bytes);

    ControlMsg ctl;
    if (detail::mw_recv_fresh(comm, 0, detail::kMwTagControl,
                              last_control_seq, ctl) != RecvStatus::kOk) {
      throw RankFailedError(0);
    }

    for (const Verdict& v : ctl.sync) {
      comm.charge_finds(1);
      hooks.learn(v);
    }
    for (const int w : ctl.adopt_workers) engine.add_worker(w);
    for (const detail::MwStreamAssign& a : ctl.adopt_streams) {
      engine.assign_stream(a.origin, a.from);
    }
    engine.dispatch(ctl.done);
    if (ctl.done) break;
  }
  return engine.stats();
}

/// Run the root loop on rank 0 (hierarchical mode): receive one batch per
/// live sub-master per round (heartbeat retry/backoff like the worker
/// links), fold the forwarded union events into the authoritative state
/// and the append-only event log, heal sub-master deaths (re-home orphans,
/// reroute streams for full replay, replay the log through the standing
/// sync channel), and decide global quiescence. Throws std::runtime_error
/// when every sub-master (or every worker) died, PhaseDeadlineExceeded
/// when the watchdog fires.
template <typename Verdict>
MwRootStats mw_root_loop(Communicator& comm, const MwOptions& opt,
                         const MwTopology& topo,
                         const MwRoot<Verdict>& hooks) {
  using BatchMsg = detail::MwBatchMsg<Verdict>;
  using ControlMsg = detail::MwControlMsg<Verdict>;
  const int masters = topo.masters;

  struct Shard {
    bool alive = true;
    bool quiescent = false;
    std::uint64_t last_batch_seq = 0;  // highest BatchMsg seq consumed
    std::uint64_t control_seq = 0;     // seq of the last ControlMsg sent
    std::vector<int> members;   // believed-live worker ranks homed here
    std::vector<int> origins;   // generation-stream origins owned here
    std::vector<int> grant_workers;  // orphans to announce next control
    std::vector<detail::MwStreamAssign> grant_streams;
    std::size_t sync_mark = 0;  // log index already shipped to this shard
  };
  std::vector<Shard> shards(static_cast<std::size_t>(masters) + 1);
  for (int m = 1; m <= masters; ++m) {
    shards[static_cast<std::size_t>(m)].members = topo.workers_of(m);
    shards[static_cast<std::size_t>(m)].origins = topo.workers_of(m);
  }
  int alive_shards = masters;

  // The forwarded-event log: every union event ever applied at the root,
  // with its origin shard. Replayed (origin-filtered) down the sync
  // channel so shard replicas converge and adopters inherit the state of
  // the dead.
  struct LogEntry {
    Verdict event;
    int origin;
  };
  std::vector<LogEntry> log;
  std::vector<std::uint64_t> rehome_seq(
      static_cast<std::size_t>(comm.size()), 0);

  MwRootStats stats;
  const detail::MwEvent applied(opt, "events_applied");
  const detail::MwEvent synced(opt, "events_synced");
  const detail::MwEvent sm_failed(opt, "submasters_failed");
  const detail::MwEvent sm_timed_out(opt, "submasters_timed_out");
  const detail::MwEvent rehomed(opt, "workers_rehomed");
  const detail::MwEvent rerouted(opt, "streams_rerouted");
  const detail::MwWatch watch(opt);

  // Deterministic round-robin cursors over live shards; stream reroutes
  // additionally require a shard with at least one believed-live worker
  // (granting a stream to a workerless spare would only bounce back).
  int rehome_cursor = 0;
  int reroute_cursor = 0;
  const auto next_live_shard = [&](int& cursor, bool need_members) {
    for (int i = 0; i < masters; ++i) {
      const int m = 1 + (cursor + i) % masters;
      const Shard& sh = shards[static_cast<std::size_t>(m)];
      if (!sh.alive) continue;
      if (need_members && sh.members.empty()) continue;
      cursor = m % masters;
      return m;
    }
    return -1;
  };

  const auto reroute_stream = [&](int origin) {
    const int t = next_live_shard(reroute_cursor, /*need_members=*/true);
    if (t < 0) {
      throw std::runtime_error(
          opt.phase + ": all workers failed; cannot complete the phase");
    }
    Shard& target = shards[static_cast<std::size_t>(t)];
    // Full replay from index 0: the adopting shard has no received
    // watermark for this stream; admit dedup and idempotent events absorb
    // the overlap, and the replay re-derives any task the dead shard still
    // had queued or outstanding.
    target.grant_streams.push_back(detail::MwStreamAssign{origin, 0});
    target.origins.push_back(origin);
    stats.streams_rerouted += rerouted.add(comm);
    comm.note(opt.phase + ": stream of rank " + std::to_string(origin) +
              " rerouted to sub-master rank " + std::to_string(t) +
              " for full replay (vt=" + std::to_string(comm.clock().now()) +
              "s)");
    detail::mw_trace_event(comm, "stream_rerouted", "heal");
  };

  const auto shard_failed = [&](int s, bool timed_out) {
    Shard& sh = shards[static_cast<std::size_t>(s)];
    sh.alive = false;
    --alive_shards;
    if (timed_out) {
      // May be merely hung: release it (and, through it, its workers) with
      // a final done control if it ever wakes. Its workers are NOT
      // re-homed — they exit with their master — so only the shard's
      // streams move.
      ControlMsg bye;
      bye.seq = ++sh.control_seq;
      bye.done = true;
      comm.send(s, detail::kMwTagControl, std::any(std::move(bye)),
                detail::kMwHeaderBytes);
      stats.submasters_timed_out += sm_timed_out.add(comm);
      comm.note(opt.phase + ": sub-master rank " + std::to_string(s) +
                " declared dead after heartbeat timeout on link 0<-" +
                std::to_string(s) + "; releasing its " +
                std::to_string(sh.members.size()) +
                " workers and rerouting " + std::to_string(sh.origins.size()) +
                " streams (vt=" + std::to_string(comm.clock().now()) + "s)");
      detail::mw_trace_event(comm, "submaster_timed_out", "heal");
    } else {
      stats.submasters_failed += sm_failed.add(comm);
      comm.note(opt.phase + ": sub-master rank " + std::to_string(s) +
                " failed; re-homing " + std::to_string(sh.members.size()) +
                " orphan workers, rerouting " +
                std::to_string(sh.origins.size()) +
                " streams, and replaying its event log (" +
                std::to_string(log.size()) + " records total) (vt=" +
                std::to_string(comm.clock().now()) + "s)");
      detail::mw_trace_event(comm, "submaster_failed", "heal");
    }
    if (alive_shards == 0) {
      throw std::runtime_error(
          opt.phase + ": all sub-masters failed; cannot complete the phase");
    }
    if (!timed_out) {
      for (const int w : sh.members) {
        const int t = next_live_shard(rehome_cursor, /*need_members=*/false);
        // t >= 1 is guaranteed: alive_shards > 0 was just checked.
        detail::MwRehomeMsg go;
        go.seq = ++rehome_seq[static_cast<std::size_t>(w)];
        go.new_master = t;
        comm.send(w, detail::kMwTagRehome, std::any(go),
                  detail::kMwHeaderBytes);
        Shard& target = shards[static_cast<std::size_t>(t)];
        target.grant_workers.push_back(w);
        target.members.push_back(w);
        stats.workers_rehomed += rehomed.add(comm);
        comm.note(opt.phase + ": orphan worker rank " + std::to_string(w) +
                  " re-homed to sub-master rank " + std::to_string(t) +
                  " (vt=" + std::to_string(comm.clock().now()) + "s)");
        detail::mw_trace_event(comm, "worker_rehomed", "heal");
      }
    }
    sh.members.clear();
    sh.grant_workers.clear();
    sh.grant_streams.clear();
    const std::vector<int> origins = std::move(sh.origins);
    sh.origins.clear();
    for (const int origin : origins) reroute_stream(origin);
  };

  bool done = false;
  while (!done) {
    watch.check_deadline(comm);

    // Receive one batch per live shard, rank ascending.
    for (int s = 1; s <= masters; ++s) {
      Shard& sh = shards[static_cast<std::size_t>(s)];
      if (!sh.alive) continue;
      BatchMsg batch;
      const RecvStatus st = detail::mw_recv_fresh(
          comm, s, detail::kMwTagBatch, sh.last_batch_seq, batch, &watch);
      if (st != RecvStatus::kOk) {
        shard_failed(s, st == RecvStatus::kTimeout);
        continue;
      }

      sh.quiescent = batch.quiescent;
      util::telemetry::record_rank(s, "sub-master", batch.busy, batch.comm,
                                   batch.idle);
      for (const Verdict& v : batch.events) {
        comm.charge_finds(1);
        hooks.apply(v);
        log.push_back(LogEntry{v, s});
        stats.events_applied += applied.add(comm);
      }
      if (!batch.events.empty()) {
        util::telemetry::progress_merges(batch.events.size());
      }
      for (const int w : batch.workers_lost) {
        sh.members.erase(
            std::remove(sh.members.begin(), sh.members.end(), w),
            sh.members.end());
      }
      for (const detail::MwStreamAssign& a : batch.surrendered) {
        sh.origins.erase(
            std::remove(sh.origins.begin(), sh.origins.end(), a.origin),
            sh.origins.end());
        reroute_stream(a.origin);
      }
    }

    util::telemetry::virtual_tick(comm.clock().now());

    // Global quiescence: every live shard reported done AND no grant is
    // still in flight (grants issued this round are reflected in the NEXT
    // round's batches, so deciding before granting is race-free).
    done = true;
    for (int s = 1; done && s <= masters; ++s) {
      const Shard& sh = shards[static_cast<std::size_t>(s)];
      if (!sh.alive) continue;
      done = sh.quiescent && sh.grant_workers.empty() &&
             sh.grant_streams.empty();
    }

    // Close the round: one control per live shard with its grants and the
    // event-log records it has not seen (origin-filtered).
    for (int s = 1; s <= masters; ++s) {
      Shard& sh = shards[static_cast<std::size_t>(s)];
      if (!sh.alive) continue;
      ControlMsg ctl;
      ctl.seq = ++sh.control_seq;
      ctl.done = done;
      ctl.adopt_workers = std::move(sh.grant_workers);
      sh.grant_workers.clear();
      ctl.adopt_streams = std::move(sh.grant_streams);
      sh.grant_streams.clear();
      if (!done) {
        for (std::size_t i = sh.sync_mark; i < log.size(); ++i) {
          if (log[i].origin == s) continue;
          ctl.sync.push_back(log[i].event);
        }
        sh.sync_mark = log.size();
        stats.events_synced += synced.add(comm, ctl.sync.size());
      }
      const std::uint64_t down_bytes =
          ctl.sync.size() * opt.event_bytes +
          ctl.adopt_streams.size() * 12 + ctl.adopt_workers.size() * 4 +
          detail::kMwHeaderBytes;
      comm.send(s, detail::kMwTagControl, std::any(std::move(ctl)),
                down_bytes);
    }
  }
  return stats;
}

/// Run the worker loop until the master says done. Flat mode (masters == 1)
/// reports to rank 0 and treats a master death as fatal (RankFailedError).
/// Hierarchical mode reports to the home sub-master; on its death the
/// worker awaits the root's re-home directive, resets its protocol state,
/// drops its local streams (the root reroutes the shard's streams for full
/// replay elsewhere), and joins the new shard fresh.
template <typename Task, typename Verdict>
void mw_worker_loop(Communicator& comm, const MwOptions& opt,
                    const MwWorker<Task, Verdict>& hooks) {
  using RoundMsg = detail::MwRoundMsg<Task, Verdict>;
  using WorkMsg = detail::MwWorkMsg<Task>;
  const MwTopology topo{comm.size(), opt.masters};
  int master = topo.hierarchical() ? topo.submaster_of(comm.rank()) : 0;

  struct Stream {
    int origin;
    std::size_t next;
    std::vector<Task> tasks;
  };
  std::vector<Stream> streams;
  auto& metric_streams =
      util::metrics().counter(opt.metrics_prefix + ".generation_streams");
  // (Re)build a rank's share of the task stream; adoption replays a dead
  // rank's share from @p from, paying the regeneration cost on THIS rank's
  // clock (the generate hook charges it).
  const auto add_stream = [&](int origin, std::uint64_t from) {
    const double t0 = comm.clock().now();
    Stream s{origin, static_cast<std::size_t>(from),
             hooks.generate(comm, origin)};
    comm.count("worker_pairs_generated",
               s.tasks.size() - std::min<std::size_t>(s.next, s.tasks.size()));
    metric_streams.add(1);
    if (util::trace::enabled()) {
      const std::string name = origin == comm.rank()
                                   ? "generate"
                                   : "generate(adopted:" +
                                         std::to_string(origin) + ")";
      util::trace::complete(util::trace::current_pid(), comm.rank(), name,
                            "generation", t0 * 1e6,
                            (comm.clock().now() - t0) * 1e6);
    }
    streams.push_back(std::move(s));
  };
  add_stream(comm.rank(), 0);

  const std::size_t submit_cap =
      opt.batch_size * std::max<std::uint32_t>(1, opt.generation_batches);

  std::uint64_t seq_out = 0;
  std::uint64_t last_work_seq = 0;
  std::uint64_t last_rehome_seq = 0;
  std::uint64_t ack = 0;
  std::vector<Verdict> verdicts;

  // Hierarchical failover: the home sub-master died. Block on the root's
  // re-home directive, then join the new shard with completely fresh
  // per-link protocol state and no streams.
  const auto rehome = [&] {
    detail::MwRehomeMsg go;
    if (detail::mw_recv_fresh(comm, 0, detail::kMwTagRehome, last_rehome_seq,
                              go) != RecvStatus::kOk) {
      throw RankFailedError(0);
    }
    master = go.new_master;
    seq_out = 0;
    last_work_seq = 0;
    ack = 0;
    verdicts.clear();
    streams.clear();
    comm.count("worker_rehomes");
    comm.note(opt.phase + ": worker rank " + std::to_string(comm.rank()) +
              " re-joined under sub-master rank " + std::to_string(master) +
              " at vt=" + std::to_string(comm.clock().now()) + "s");
    detail::mw_trace_event(comm, "rehomed", "heal");
  };

  // After a re-home the worker must NOT send an unprompted round: the new
  // sub-master dispatches its first work message (carrying any stream
  // grants) at adoption time, and an unprompted pre-adoption round would
  // report exhausted=true with no streams — a stale quiescence signal that
  // could convince the root the phase is done while the regenerated tasks
  // are still in flight. Waiting for that first work message restores the
  // flat protocol's lockstep (a round is only ever a response to work).
  bool skip_round = false;
  while (true) {
    if (!skip_round) {
      RoundMsg round;
      round.seq = ++seq_out;
      for (Stream& s : streams) {
        if (s.next >= s.tasks.size()) continue;
        const std::size_t take =
            std::min<std::size_t>(submit_cap, s.tasks.size() - s.next);
        round.stream = s.origin;
        round.start = s.next;
        round.tasks.assign(
            s.tasks.begin() + static_cast<std::ptrdiff_t>(s.next),
            s.tasks.begin() + static_cast<std::ptrdiff_t>(s.next + take));
        s.next += take;
        break;
      }
      round.exhausted =
          std::all_of(streams.begin(), streams.end(), [](const Stream& s) {
            return s.next >= s.tasks.size();
          });
      round.verdicts = std::move(verdicts);
      verdicts.clear();
      round.ack_seq = ack;
      ack = 0;
      round.busy = comm.busy_time();
      round.comm = comm.comm_time();
      round.idle = comm.idle_time();
      const std::uint64_t bytes = round.tasks.size() * opt.task_bytes +
                                  round.verdicts.size() * opt.verdict_bytes +
                                  detail::kMwHeaderBytes;
      comm.send(master, detail::kMwTagRound, std::any(std::move(round)),
                bytes);
    }
    skip_round = false;

    WorkMsg work;
    if (detail::mw_recv_fresh(comm, master, detail::kMwTagWork, last_work_seq,
                              work) != RecvStatus::kOk) {
      if (!topo.hierarchical()) throw RankFailedError(master);
      rehome();
      // The new sub-master speaks first (its adoption-time dispatch);
      // answering with a round before hearing it would desync lockstep.
      skip_round = true;
      continue;
    }
    for (const detail::MwStreamAssign& a : work.adopt) {
      add_stream(a.origin, a.from);
    }
    if (work.done) break;
    if (!work.tasks.empty()) ack = work.seq;
    hooks.evaluate(comm, work.tasks, verdicts);
  }
}

/// A phase's role hooks for MwPhase::run: a flat run calls master and
/// worker, a tree root, shard and worker. Each factory runs once on its
/// rank's thread, so per-rank state (a seen set, a shard replica, a worker
/// policy) lives in the hooks it returns.
template <typename Task, typename Verdict>
struct MwRoles {
  std::function<MwMaster<Task, Verdict>()> master;
  std::function<MwRoot<Verdict>()> root;
  std::function<MwShard<Task, Verdict>()> shard;
  std::function<MwWorker<Task, Verdict>()> worker;
  /// Optional: the flat master's or a sub-master's stats, on its rank.
  std::function<void(Communicator&, const MwMasterStats&)> master_done;
};

/// Runs one protocol phase on p simulated ranks: rank 0 is the flat
/// master or the tree's root, ranks 1..masters a tree's sub-masters, the
/// rest workers.
class MwPhase {
 public:
  /// Checks the layout before anything is built. Throws
  /// std::invalid_argument prefixed with @p caller when no worker rank
  /// exists (p < 2, or p < masters + 2 in a tree), and, via
  /// FaultPlan::validate_protocol, for a plan crashing rank 0, every
  /// sub-master or every worker.
  MwPhase(const std::string& caller, MwOptions opt, int p,
          const FaultPlan* plan)
      : opt_(std::move(opt)), topo_{p, std::max(1, opt_.masters)},
        plan_(plan) {
    opt_.masters = topo_.masters;
    if (topo_.worker_count() < 1) {
      throw std::invalid_argument(
          caller + ": p=" + std::to_string(p) + " is too small for masters=" +
          std::to_string(topo_.masters) +
          "; need p >= 2, and p >= masters + 2 in a tree");
    }
    if (plan_) plan_->validate_protocol(p, opt_.masters);
  }

  [[nodiscard]] bool hierarchical() const { return topo_.hierarchical(); }

  /// Owner worker rank of each weighted item (MwTopology::assign_lpt).
  [[nodiscard]] std::vector<int> assign(
      const std::vector<std::uint64_t>& weights) const {
    return topo_.assign_lpt(weights);
  }

  /// Runs each rank in its role under the plan, through run_phase with
  /// the topology's levels.
  template <typename Task, typename Verdict>
  RunResult run(const MachineModel& model,
                const MwRoles<Task, Verdict>& roles) const {
    const auto rank_fn = [&](Communicator& comm) {
      const int r = comm.rank();
      if (topo_.is_worker(r)) {
        mw_worker_loop(comm, opt_, roles.worker());
      } else if (r == 0 && topo_.hierarchical()) {
        mw_root_loop(comm, opt_, topo_, roles.root());
      } else {
        const MwMasterStats stats =
            r == 0 ? mw_master_loop(comm, opt_, roles.master())
                   : mw_submaster_loop(comm, opt_, topo_, roles.shard());
        if (roles.master_done) roles.master_done(comm, stats);
      }
    };
    return run_phase(opt_.phase, topo_.p, model, plan_, rank_fn,
                     [this](int r) { return std::string(topo_.level_of(r)); });
  }

 private:
  MwOptions opt_;
  MwTopology topo_;
  const FaultPlan* plan_;
};

}  // namespace pclust::mpsim
