// Fault-injection semantics of the simulator: planned crashes are recorded
// (not rethrown), failure-aware receives observe dead peers, drops only
// delay, duplicates re-deliver, stragglers slow the clock — and every
// faulted execution is a deterministic function of (plan, workload).
#include "pclust/mpsim/runtime.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pclust::mpsim {
namespace {

// crash_at = 0 fires on the first charge or communication op even under the
// free model (clock 0 >= 0), which keeps these tests instant.
FaultPlan crash_rank(int rank, double at = 0.0) {
  FaultPlan plan;
  plan.crashes.push_back({rank, at});
  return plan;
}

/// Receive the next message on (src, tag), which must arrive.
Message recv_ok(Communicator& comm, int src, int tag) {
  Message msg;
  EXPECT_EQ(comm.recv_status(src, tag, msg), RecvStatus::kOk);
  return msg;
}

TEST(Faults, PlannedCrashRecordedNotRethrown) {
  const auto r = run(3, MachineModel::free(), crash_rank(2),
                     [](Communicator& comm) {
                       comm.charge_cells(1);
                       if (comm.rank() == 2) FAIL() << "rank 2 must be dead";
                     });
  EXPECT_EQ(r.crashed_ranks, (std::vector<int>{2}));
}

TEST(Faults, RecvStatusReportsFailedPeer) {
  RecvStatus seen = RecvStatus::kOk;
  run(2, MachineModel::free(), crash_rank(1), [&](Communicator& comm) {
    if (comm.rank() == 1) {
      comm.charge_cells(1);  // dies here
      return;
    }
    Message msg;
    seen = comm.recv_status(1, 7, msg);
  });
  EXPECT_EQ(seen, RecvStatus::kRankFailed);
}

TEST(Faults, MessagesSentBeforeCrashStayDeliverable) {
  int got = 0;
  run(2, MachineModel::free(), crash_rank(1, 1.0), [&](Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send(0, 5, std::any(41), 4);
      comm.send(0, 5, std::any(42), 4);
      comm.clock().advance(2.0);
      comm.charge_cells(1);  // now past crash_at = 1.0
      return;
    }
    Message msg;
    while (comm.recv_status(1, 5, msg) == RecvStatus::kOk) {
      got = msg.take<int>();
    }
  });
  EXPECT_EQ(got, 42);  // both arrived before the failure was observed
}

TEST(Faults, RecvStatusTimesOutOnSilentPeer) {
  RecvStatus seen = RecvStatus::kOk;
  run(2, MachineModel::free(), [&](Communicator& comm) {
    if (comm.rank() == 1) {
      (void)recv_ok(comm, 0, 4);  // alive until released; never sends on 3
      return;
    }
    Message msg;
    seen = comm.recv_status(1, 3, msg, 0.05);
    comm.send(1, 4, std::any(0), 0);
  });
  EXPECT_EQ(seen, RecvStatus::kTimeout);
}

TEST(Faults, DropsDelayButNeverLoseMessages) {
  FaultPlan plan;
  plan.seed = 9;
  plan.drop_probability = 0.8;
  plan.retransmit_delay = 0.5;
  constexpr int kMessages = 32;
  std::vector<int> received;
  const auto faulted = run(2, MachineModel::bluegene_l(), plan,
                           [&](Communicator& comm) {
                             if (comm.rank() == 1) {
                               for (int i = 0; i < kMessages; ++i) {
                                 comm.send(0, 0, std::any(i), 8);
                               }
                               return;
                             }
                             for (int i = 0; i < kMessages; ++i) {
                               received.push_back(
                                   recv_ok(comm, 1, 0).take<int>());
                             }
                           });
  std::vector<int> expected(kMessages);
  for (int i = 0; i < kMessages; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(received, expected);  // reliable link: order and content intact

  const auto clean = run(2, MachineModel::bluegene_l(), [](Communicator& comm) {
    if (comm.rank() == 1) {
      for (int i = 0; i < kMessages; ++i) comm.send(0, 0, std::any(i), 8);
      return;
    }
    for (int i = 0; i < kMessages; ++i) (void)recv_ok(comm, 1, 0);
  });
  EXPECT_GT(faulted.makespan, clean.makespan);  // retransmits cost time
}

TEST(Faults, DuplicatesAreRedelivered) {
  FaultPlan plan;
  plan.seed = 4;
  plan.duplicate_probability = 0.7;
  constexpr int kMessages = 40;
  int extras = 0;
  run(2, MachineModel::free(), plan, [&](Communicator& comm) {
    if (comm.rank() == 1) {
      for (int i = 0; i < kMessages; ++i) comm.send(0, 0, std::any(i), 8);
      comm.send(0, 1, std::any(0), 0);  // marker, sent after every message
      return;
    }
    // Copies are queued at send time, so once the marker is in, every copy
    // on tag 0 is too; a zero timeout then drains them without blocking.
    (void)recv_ok(comm, 1, 1);
    Message msg;
    int copies = 0;
    while (comm.recv_status(1, 0, msg, 0.0) == RecvStatus::kOk) ++copies;
    extras = copies - kMessages;
  });
  EXPECT_GT(extras, 0) << "p=0.7 over 40 messages must duplicate some";
  EXPECT_LE(extras, kMessages);
}

TEST(Faults, StragglerScalesComputeOnly) {
  FaultPlan plan;
  plan.straggler_factor = {1.0, 4.0};
  const auto r = run(2, MachineModel::bluegene_l(), plan,
                     [](Communicator& comm) { comm.charge_cells(1'000'000); });
  ASSERT_EQ(r.rank_times.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rank_times[1], 4.0 * r.rank_times[0]);
}

TEST(Faults, FaultedRunIsDeterministic) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_probability = 0.3;
  plan.duplicate_probability = 0.2;
  plan.crashes.push_back({3, 0.01});  // dies inside its compute charge
  plan.straggler_factor = {1.0, 2.0};
  const auto once = [&] {
    return run(4, MachineModel::bluegene_l(), plan, [](Communicator& comm) {
      if (comm.rank() == 0) {
        for (int w = 1; w < comm.size(); ++w) {
          comm.send(w, 0, std::any(w), 64);
        }
        Message msg;
        for (int w = 1; w < comm.size(); ++w) {
          (void)comm.recv_status(w, 1, msg);
        }
        return;
      }
      comm.charge_cells(500'000);
      Message msg;
      if (comm.recv_status(0, 0, msg) == RecvStatus::kOk) {
        comm.send(0, 1, std::any(msg.take<int>()), 64);
      }
    });
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.crashed_ranks, (std::vector<int>{3}));
  EXPECT_EQ(a.crashed_ranks, b.crashed_ranks);
  EXPECT_EQ(a.rank_times, b.rank_times);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Faults, MalformedPlansRejected) {
  FaultPlan bad_rank;
  bad_rank.crashes.push_back({5, 0.0});
  EXPECT_THROW(run(4, MachineModel::free(), bad_rank, [](Communicator&) {}),
               std::invalid_argument);

  FaultPlan bad_prob;
  bad_prob.drop_probability = 1.0;
  EXPECT_THROW(run(4, MachineModel::free(), bad_prob, [](Communicator&) {}),
               std::invalid_argument);

  FaultPlan bad_delay;
  bad_delay.retransmit_delay = -1.0;
  bad_delay.drop_probability = 0.1;
  EXPECT_THROW(run(4, MachineModel::free(), bad_delay, [](Communicator&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pclust::mpsim
