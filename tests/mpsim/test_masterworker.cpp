// Protocol-level tests for the resilient master–worker layer, flat and
// as a master tree, on a toy workload: worker rank w owns keys
// w*1000 .. w*1000+kPerWorker-1 and each verdict is the key squared.
// Completeness = every key applied with the right value, whatever faults
// the plan injects.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pclust/mpsim/masterworker.hpp"
#include "pclust/mpsim/runtime.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::mpsim {
namespace {

struct ToyTask {
  int key = 0;
};
struct ToyVerdict {
  int key = 0;
  long long value = 0;
};

constexpr int kPerWorker = 57;  // not a multiple of batch_size

struct ToyOutcome {
  std::map<int, long long> values;  // first verdict wins (idempotent apply)
  std::map<int, int> applications;  // how often each key was applied
  MwMasterStats stats;              // flat runs
  MwRootStats root;                 // master-tree runs
  RunResult run;
};

MwOptions toy_options() {
  MwOptions opt;
  opt.phase = "toy";
  opt.metrics_prefix = "toy";
  opt.batch_size = 8;
  opt.task_bytes = 4;
  opt.verdict_bytes = 12;
  return opt;
}

/// The toy worker's hooks: generation yields rank origin's keys,
/// evaluation squares them. @p hiccup, when set, is called at the start of
/// every evaluate with (rank, per-rank call ordinal) — tests use it to
/// wall-sleep a worker (hung-rank scenarios).
MwWorker<ToyTask, ToyVerdict> toy_worker_hooks(
    const std::function<void(int, std::uint64_t)>& hiccup) {
  MwWorker<ToyTask, ToyVerdict> worker;
  worker.generate = [](Communicator& c, int origin) {
    c.charge_pairs(kPerWorker);
    std::vector<ToyTask> tasks(kPerWorker);
    for (int i = 0; i < kPerWorker; ++i) {
      tasks[static_cast<std::size_t>(i)].key = origin * 1000 + i;
    }
    return tasks;
  };
  worker.evaluate = [hiccup, calls = std::uint64_t{0}](
                        Communicator& c, const std::vector<ToyTask>& tasks,
                        std::vector<ToyVerdict>& verdicts) mutable {
    if (hiccup) hiccup(c.rank(), calls++);
    c.charge_finds(tasks.size());
    for (const ToyTask& t : tasks) {
      verdicts.push_back(
          ToyVerdict{t.key, static_cast<long long>(t.key) * t.key});
    }
  };
  return worker;
}

/// Run the toy worker on @p comm's rank (see toy_worker_hooks).
void toy_worker(Communicator& comm, const MwOptions& opt,
                const std::function<void(int, std::uint64_t)>& hiccup) {
  mw_worker_loop(comm, opt, toy_worker_hooks(hiccup));
}

/// Run the toy phase on @p p ranks with a flat master (see toy_worker for
/// @p hiccup).
ToyOutcome run_toy(
    int p, const FaultPlan* plan, const MwOptions& opt,
    const std::function<void(int, std::uint64_t)>& hiccup = nullptr,
    const MachineModel& model = MachineModel::free()) {
  ToyOutcome out;
  out.run = run_phase(opt.phase, p, model, plan, [&](Communicator& comm) {
    if (comm.rank() != 0) {
      toy_worker(comm, opt, hiccup);
      return;
    }
    std::set<int> seen;
    MwMaster<ToyTask, ToyVerdict> master;
    master.admit = [&](const ToyTask& t) {
      return seen.insert(t.key).second ? MwAdmit::kQueue : MwAdmit::kDuplicate;
    };
    master.apply = [&](const ToyVerdict& v) {
      ++out.applications[v.key];
      out.values.emplace(v.key, v.value);
    };
    out.stats = mw_master_loop(comm, opt, master);
  });
  return out;
}

/// Run the toy phase on the two-level master tree of @p opt.masters
/// sub-masters: each shard replica is the set of keys it has resolved,
/// and the root keeps the first value per key. @p hang is called at the
/// start of every sub-master resolve with (rank, per-rank call ordinal) —
/// tests use it to wall-sleep a sub-master.
ToyOutcome run_toy_tree(
    int p, const MwOptions& opt,
    const std::function<void(int, std::uint64_t)>& hang) {
  ToyOutcome out;
  const MwTopology topo{p, opt.masters};
  const auto rank_fn = [&](Communicator& comm) {
    if (comm.rank() == 0) {
      MwRoot<ToyVerdict> root;
      root.apply = [&](const ToyVerdict& v) {
        ++out.applications[v.key];
        out.values.emplace(v.key, v.value);
      };
      out.root = mw_root_loop(comm, opt, topo, root);
      return;
    }
    if (!topo.is_submaster(comm.rank())) {
      toy_worker(comm, opt, nullptr);
      return;
    }
    std::set<int> seen;
    std::set<int> resolved;
    std::uint64_t calls = 0;
    MwShard<ToyTask, ToyVerdict> shard;
    shard.admit = [&](const ToyTask& t) {
      return seen.insert(t.key).second ? MwAdmit::kQueue : MwAdmit::kDuplicate;
    };
    shard.resolve = [&](const ToyVerdict& v) {
      hang(comm.rank(), calls++);
      return resolved.insert(v.key).second;
    };
    shard.learn = [&](const ToyVerdict& v) { resolved.insert(v.key); };
    (void)mw_submaster_loop(comm, opt, topo, shard);
  };
  out.run = run_phase(opt.phase, p, MachineModel::free(), nullptr, rank_fn);
  return out;
}

/// Every key of every worker first_worker..p-1 applied with value key^2.
void expect_complete(const ToyOutcome& out, int p, int first_worker = 1) {
  ASSERT_EQ(out.values.size(),
            static_cast<std::size_t>(p - first_worker) * kPerWorker);
  for (int w = first_worker; w < p; ++w) {
    for (int i = 0; i < kPerWorker; ++i) {
      const int key = w * 1000 + i;
      const auto it = out.values.find(key);
      ASSERT_NE(it, out.values.end()) << "missing key " << key;
      EXPECT_EQ(it->second, static_cast<long long>(key) * key) << key;
    }
  }
}

TEST(MasterWorker, FaultFreeAppliesEveryTaskExactlyOnce) {
  const auto out = run_toy(4, nullptr, toy_options());
  expect_complete(out, 4);
  EXPECT_EQ(out.stats.submitted, 3u * kPerWorker);
  EXPECT_EQ(out.stats.dispatched, 3u * kPerWorker);
  EXPECT_EQ(out.stats.duplicates, 0u);
  EXPECT_EQ(out.stats.filtered, 0u);
  for (const auto& [key, n] : out.applications) EXPECT_EQ(n, 1) << key;
  EXPECT_TRUE(out.run.crashed_ranks.empty());
  EXPECT_EQ(out.run.counter("workers_failed"), 0u);
}

TEST(MasterWorker, CrashedWorkerStreamIsAdoptedAndReplayed) {
  FaultPlan plan;
  plan.crashes.push_back({2, 0.0});  // dies before submitting anything
  const auto out = run_toy(4, &plan, toy_options());
  expect_complete(out, 4);  // keys 2000.. came from the adopter's replay
  EXPECT_EQ(out.run.crashed_ranks, std::vector<int>{2});
  EXPECT_EQ(out.run.counter("workers_failed"), 1u);
  EXPECT_EQ(out.run.counter("streams_adopted"), 1u);
  EXPECT_FALSE(out.run.fault_events.empty());
  // Healing events carry the phase label for attribution.
  bool attributed = false;
  for (const auto& e : out.run.fault_events) {
    if (e.rfind("toy:", 0) == 0) attributed = true;
  }
  EXPECT_TRUE(attributed);
}

TEST(MasterWorker, MidPhaseCrashRequeuesOutstandingChunk) {
  // Crash rank 1 halfway through its fault-free virtual lifetime, so it has
  // submitted tasks and (usually) holds an unacknowledged chunk; whatever
  // it left behind must be requeued and completed by rank 2. The free model
  // never advances the clock, so this test needs a costed one.
  const auto model = MachineModel::bluegene_l();
  const auto golden = run_toy(3, nullptr, toy_options(), nullptr, model);
  expect_complete(golden, 3);

  FaultPlan plan;
  plan.crashes.push_back({1, 0.5 * golden.run.rank_times[1]});
  const auto out = run_toy(3, &plan, toy_options(), nullptr, model);
  expect_complete(out, 3);
  EXPECT_EQ(out.run.crashed_ranks, std::vector<int>{1});
  EXPECT_EQ(out.run.counter("workers_failed"), 1u);
  EXPECT_EQ(out.run.counter("streams_adopted"), 1u);
}

TEST(MasterWorker, DropDuplicateStragglerLinksStayComplete) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_probability = 0.25;
  plan.duplicate_probability = 0.25;
  plan.straggler_factor = {1.0, 1.0, 3.0};
  const auto out = run_toy(3, &plan, toy_options());
  expect_complete(out, 3);
  // Duplicated deliveries are dropped by sequence number before the admit
  // hook ever sees them, so every key is still applied exactly once.
  for (const auto& [key, n] : out.applications) EXPECT_EQ(n, 1) << key;
  EXPECT_TRUE(out.run.crashed_ranks.empty());
}

TEST(MasterWorker, AllWorkersDeadThrowsAttributedError) {
  FaultPlan plan;
  plan.crashes.push_back({1, 0.0});
  try {
    run_toy(2, &plan, toy_options());
    FAIL() << "expected RankError";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.phase(), "toy");
    EXPECT_NE(std::string(e.what()).find("all workers failed"),
              std::string::npos);
  }
}

TEST(MasterWorker, PhaseDeadlineSurfacesAsAttributedRankError) {
  MwOptions opt = toy_options();
  opt.deadline_seconds = 0.05;  // wall clock
  const auto hang = [](int rank, std::uint64_t) {
    if (rank == 1) std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  try {
    run_toy(2, nullptr, opt, hang);
    FAIL() << "expected RankError from the phase watchdog";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.phase(), "toy");
    EXPECT_NE(std::string(e.what()).find("phase deadline"), std::string::npos);
  }
}

TEST(MasterWorker, HeartbeatTimeoutDeclaresHungWorkerDeadAndHeals) {
  MwOptions opt = toy_options();
  opt.heartbeat_timeout = 0.05;  // wall seconds; retries back off 0.1, 0.2
  opt.heartbeat_retries = 2;
  // Rank 1 goes silent for far longer than the full retry budget
  // (0.05 + 0.1 + 0.2 = 0.35s) on its first chunk; rank 2 stays healthy.
  const auto hang = [](int rank, std::uint64_t call) {
    if (rank == 1 && call == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
  };
  const auto out = run_toy(3, nullptr, opt, hang);
  expect_complete(out, 3);  // rank 2 finished rank 1's share
  EXPECT_EQ(out.run.counter("workers_timed_out"), 1u);
  EXPECT_EQ(out.run.counter("workers_failed"), 0u);
  EXPECT_GE(out.run.counter("link_timeout_retries"), 2u);
  EXPECT_EQ(out.run.counter("streams_adopted"), 1u);
  EXPECT_TRUE(out.run.crashed_ranks.empty());  // hung, not crashed
  bool timeout_noted = false;
  for (const auto& e : out.run.fault_events) {
    if (e.find("heartbeat timeout") != std::string::npos) timeout_noted = true;
  }
  EXPECT_TRUE(timeout_noted);
}

TEST(MasterWorker, HeartbeatBackoffCeilingBoundsTheRetryLadder) {
  // Uncapped, the doubling ladder 0.05 * (1 + 2 + 4 + 8 + 16 + 32) would
  // wait 3.15 wall seconds — far longer than the 1.2s hang, so the worker
  // would recover mid-ladder. The 0.06s ceiling clamps every retry,
  // shrinking the whole budget to 0.05 + 5 * 0.06 = 0.35s, and it is
  // exactly that clamp which lets the timeout fire while the worker is
  // still hung.
  MwOptions opt = toy_options();
  opt.heartbeat_timeout = 0.05;
  opt.heartbeat_retries = 5;
  opt.heartbeat_max_timeout = 0.06;
  const auto hang = [](int rank, std::uint64_t call) {
    if (rank == 1 && call == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }
  };
  const auto out = run_toy(3, nullptr, opt, hang);
  expect_complete(out, 3);  // rank 2 adopted and replayed rank 1's stream
  EXPECT_EQ(out.run.counter("workers_timed_out"), 1u);
  // Retry-count accounting: the hung link exhausts its full retry budget
  // exactly once; the healthy link never times out.
  EXPECT_EQ(out.run.counter("link_timeout_retries"), 5u);
  EXPECT_EQ(out.run.counter("streams_adopted"), 1u);
}

TEST(MasterWorker, UncappedBackoffOutlastsTheHangAndNobodyDies) {
  // Companion to the ceiling test: the SAME ladder without the ceiling
  // (3.15s in all) outwaits the 1.2s hang, so the worker wakes inside a
  // retry window, submits, and is never declared dead. The ceiling is the
  // only difference.
  MwOptions opt = toy_options();
  opt.heartbeat_timeout = 0.05;
  opt.heartbeat_retries = 5;
  opt.heartbeat_max_timeout = 0.0;  // uncapped
  const auto hang = [](int rank, std::uint64_t call) {
    if (rank == 1 && call == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }
  };
  const auto out = run_toy(3, nullptr, opt, hang);
  expect_complete(out, 3);
  EXPECT_EQ(out.run.counter("workers_timed_out"), 0u);
  EXPECT_EQ(out.run.counter("streams_adopted"), 0u);
  EXPECT_GE(out.run.counter("link_timeout_retries"), 1u);
}

TEST(MasterWorker, DeadlineAtHeartbeatRetryBoundaryIsAttributed) {
  // The retry ladder re-checks the phase watchdog at every boundary: with a
  // 0.15s deadline and a 0.1 -> 0.2 -> ... ladder, the second boundary
  // lands past the deadline and must surface as the deadline (with the
  // retry boundary named), not disappear into another backoff.
  MwOptions opt = toy_options();
  opt.deadline_seconds = 0.15;
  opt.heartbeat_timeout = 0.1;
  opt.heartbeat_retries = 5;
  const auto hang = [](int rank, std::uint64_t call) {
    if (rank == 1 && call == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
  };
  try {
    run_toy(2, nullptr, opt, hang);
    FAIL() << "expected RankError from the deadline at a retry boundary";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.phase(), "toy");
    const std::string what = e.what();
    EXPECT_NE(what.find("phase deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("heartbeat-retry boundary"), std::string::npos)
        << what;
  }
}

TEST(MasterWorkerTree, HungSubmasterTimesOutAndItsStreamsAreRerouted) {
  // Sub-master 1 goes silent in its first resolve for far longer than the
  // root's retry budget (0.05 + 0.1 + 0.2 = 0.35s). The root declares it
  // dead by heartbeat and releases it with a done control; its workers
  // exit with it rather than being re-homed, so only its streams move, to
  // sub-master 2 for a full replay.
  MwOptions opt = toy_options();
  opt.masters = 2;
  opt.heartbeat_timeout = 0.05;
  opt.heartbeat_retries = 2;
  const auto hang = [](int rank, std::uint64_t call) {
    if (rank == 1 && call == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
  };
  const auto out = run_toy_tree(6, opt, hang);
  expect_complete(out, 6, /*first_worker=*/3);
  EXPECT_EQ(out.root.submasters_timed_out, 1u);
  EXPECT_EQ(out.root.workers_rehomed, 0u);
  EXPECT_GE(out.root.streams_rerouted, 1u);
  EXPECT_GE(out.run.counter("link_timeout_retries"), 2u);
  EXPECT_TRUE(out.run.crashed_ranks.empty());  // hung, not crashed
}

TEST(MasterWorkerTree, RootDeadlineAtHeartbeatRetryBoundaryIsAttributed) {
  // The root's retry ladder re-checks the phase watchdog at every
  // boundary: with a 0.15s deadline and a 0.1 -> 0.2 -> ... ladder on the
  // link to the hung sub-master, the second boundary lands past the
  // deadline and surfaces as the deadline, naming the retry boundary.
  MwOptions opt = toy_options();
  opt.masters = 2;
  opt.deadline_seconds = 0.15;
  opt.heartbeat_timeout = 0.1;
  opt.heartbeat_retries = 5;
  const auto hang = [](int rank, std::uint64_t call) {
    if (rank == 1 && call == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
  };
  try {
    run_toy_tree(6, opt, hang);
    FAIL() << "expected RankError from the deadline at a retry boundary";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.phase(), "toy");
    const std::string what = e.what();
    EXPECT_NE(what.find("phase deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("heartbeat-retry boundary"), std::string::npos)
        << what;
  }
}

/// Run the toy phase through MwPhase, flat or as a tree depending on
/// @p opt.masters.
ToyOutcome run_toy_phase(int p, const MwOptions& opt) {
  ToyOutcome out;
  const MwPhase phase("toy_phase", opt, p, nullptr);
  std::set<int> seen;
  const auto record = [&](const ToyVerdict& v) {
    ++out.applications[v.key];
    out.values.emplace(v.key, v.value);
  };
  MwRoles<ToyTask, ToyVerdict> roles;
  roles.master = [&] {
    const auto admit = [&](const ToyTask& t) {
      return seen.insert(t.key).second ? MwAdmit::kQueue : MwAdmit::kDuplicate;
    };
    return MwMaster<ToyTask, ToyVerdict>{admit, record};
  };
  roles.root = [&] { return MwRoot<ToyVerdict>{record}; };
  roles.shard = [] {
    auto shard_seen = std::make_shared<std::set<int>>();
    auto resolved = std::make_shared<std::set<int>>();
    MwShard<ToyTask, ToyVerdict> hooks;
    hooks.admit = [shard_seen](const ToyTask& t) {
      return shard_seen->insert(t.key).second ? MwAdmit::kQueue
                                              : MwAdmit::kDuplicate;
    };
    hooks.resolve = [resolved](const ToyVerdict& v) {
      return resolved->insert(v.key).second;
    };
    hooks.learn = [resolved](const ToyVerdict& v) { resolved->insert(v.key); };
    return hooks;
  };
  roles.worker = [] { return toy_worker_hooks(nullptr); };
  roles.master_done = [&](Communicator& comm, const MwMasterStats& stats) {
    if (comm.rank() == 0) out.stats = stats;  // the flat master's
  };
  out.run = phase.run(MachineModel::bluegene_l(), roles);
  return out;
}

void expect_levels(const RunResult& run, const MwTopology& topo) {
  ASSERT_EQ(run.rank_levels.size(), static_cast<std::size_t>(topo.p));
  for (int r = 0; r < topo.p; ++r) {
    EXPECT_EQ(run.rank_levels[static_cast<std::size_t>(r)], topo.level_of(r))
        << "rank " << r;
  }
}

TEST(MasterWorkerPhase, FlatRunRecordsEachRanksLevel) {
  const auto out = run_toy_phase(4, toy_options());
  expect_complete(out, 4);
  EXPECT_EQ(out.stats.dispatched, 3u * kPerWorker);
  expect_levels(out.run, MwTopology{4, 1});
  EXPECT_EQ(out.run.rank_levels[0], "master");
}

TEST(MasterWorkerPhase, TreeRunRecordsEachRanksLevel) {
  MwOptions opt = toy_options();
  opt.masters = 2;
  const auto out = run_toy_phase(6, opt);
  expect_complete(out, 6, /*first_worker=*/3);
  expect_levels(out.run, MwTopology{6, 2});
  EXPECT_EQ(out.run.rank_levels[0], "root");
  EXPECT_EQ(out.run.rank_levels[2], "sub-master");
}

TEST(MasterWorkerPhase, RejectsLayoutsItCannotRunBeforeAnyRankStarts) {
  MwOptions tree = toy_options();
  tree.masters = 2;
  FaultPlan root_crash;
  root_crash.crashes.push_back({0, 1.0});
  const auto message = [](int p, const MwOptions& opt, const FaultPlan* plan) {
    try {
      const MwPhase phase("toy_phase", opt, p, plan);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(message(1, toy_options(), nullptr).rfind("toy_phase: ", 0), 0u);
  EXPECT_EQ(message(3, tree, nullptr).rfind("toy_phase: ", 0), 0u);
  EXPECT_NE(message(4, toy_options(), &root_crash), "");
  EXPECT_EQ(message(4, tree, nullptr), "");
}

TEST(MasterWorkerPhase, DrawsItsTraceTimelineThenReturnsToPidZero) {
  util::trace::enable();
  const auto out = run_toy_phase(3, toy_options());
  EXPECT_EQ(util::trace::current_pid(), 0);
  const util::JsonValue doc = util::parse_json(util::trace::render_json());
  util::trace::disable();

  int pid = -1;
  std::map<int, std::string> lanes;
  std::map<int, double> rank_spans;
  for (const util::JsonValue& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    if (ph == "M" && name == "process_name" &&
        e.at("args").at("name").as_string() == "sim:toy") {
      pid = static_cast<int>(e.at("pid").as_u64());
    }
  }
  ASSERT_GT(pid, 0);
  for (const util::JsonValue& e : doc.at("traceEvents").array) {
    if (static_cast<int>(e.at("pid").as_u64()) != pid) continue;
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    const int tid = static_cast<int>(e.at("tid").as_u64());
    if (ph == "M" && name == "thread_name") {
      lanes[tid] = e.at("args").at("name").as_string();
    }
    if (ph == "X" && name == "rank") {
      rank_spans[tid] = e.at("dur").as_number();
    }
  }
  EXPECT_EQ(lanes, (std::map<int, std::string>{
                       {0, "master"}, {1, "worker-1"}, {2, "worker-2"}}));
  ASSERT_EQ(rank_spans.size(), 3u);
  for (const auto& [rank, dur] : rank_spans) {  // JSON keeps ~9 digits
    EXPECT_NEAR(dur, out.run.rank_times[static_cast<std::size_t>(rank)] * 1e6,
                1e-3);
  }
}

TEST(MwTopologyLpt, TieBreaksAndSingleWorker) {
  // Equal weights go to the workers in rank order.
  EXPECT_EQ(MwTopology({4, 1}).assign_lpt({5, 5, 5, 5}),
            (std::vector<int>{1, 2, 3, 1}));
  // The heaviest item is placed first, on the lowest worker rank; the
  // lighter ones then fill the least-loaded worker.
  EXPECT_EQ(MwTopology({3, 1}).assign_lpt({1, 10, 1}),
            (std::vector<int>{2, 1, 2}));
  // A tree's workers start after its sub-masters.
  EXPECT_EQ(MwTopology({6, 2}).assign_lpt({3, 7, 3}),
            (std::vector<int>{4, 3, 5}));
  // A single worker takes everything.
  EXPECT_EQ(MwTopology({2, 1}).assign_lpt({9, 1, 4}),
            (std::vector<int>{1, 1, 1}));
  EXPECT_TRUE(MwTopology({3, 1}).assign_lpt({}).empty());
}

TEST(MasterWorker, MetricsUseThePhasePrefix) {
  util::metrics().reset();
  const auto out = run_toy(4, nullptr, toy_options());
  expect_complete(out, 4);
  const auto snap = util::metrics().snapshot();
  EXPECT_EQ(snap.counter("toy.generation_streams"), 3u);
  EXPECT_EQ(snap.counter("toy.workers_failed"), 0u);
  EXPECT_EQ(snap.counter("toy.pairs_requeued"), 0u);
}

}  // namespace
}  // namespace pclust::mpsim
