#include "pclust/mpsim/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace pclust::mpsim {
namespace {

/// Receive the next message on (src, tag), which must arrive.
Message recv_ok(Communicator& comm, int src, int tag) {
  Message msg;
  EXPECT_EQ(comm.recv_status(src, tag, msg), RecvStatus::kOk);
  return msg;
}

TEST(Runtime, SingleRankRuns) {
  int calls = 0;
  const auto r = run(1, MachineModel::free(), [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.rank_times.size(), 1u);
}

TEST(Runtime, AllRanksRunExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> per_rank(8);
  run(8, MachineModel::free(), [&](Communicator& comm) {
    ++calls;
    ++per_rank[static_cast<std::size_t>(comm.rank())];
  });
  EXPECT_EQ(calls.load(), 8);
  for (auto& c : per_rank) EXPECT_EQ(c.load(), 1);
}

TEST(Runtime, BreakdownPartitionsEachRanksVirtualTime) {
  // busy + comm + idle must equal rank_times per rank, up to fp rounding —
  // the analyzer and report-check both lean on this identity. Exercise all
  // three buckets: compute charges, real wire traffic, and a wait on a
  // message stamped later than the receiver's clock.
  const auto r = run(4, MachineModel::bluegene_l(), [](Communicator& comm) {
    comm.charge_cells(1000u * static_cast<std::uint64_t>(comm.rank() + 1));
    if (comm.rank() == 0) {
      for (int dst = 1; dst < comm.size(); ++dst) {
        comm.send(dst, 7, int{1}, 1 << 16);
      }
      (void)recv_ok(comm, 3, 8);  // rank 3 answers long after rank 0 sent
    } else {
      (void)recv_ok(comm, 0, 7);
      if (comm.rank() == 3) comm.send(0, 8, int{1}, 8);
    }
  });
  ASSERT_EQ(r.rank_breakdown.size(), r.rank_times.size());
  double busy_total = 0.0;
  for (std::size_t i = 0; i < r.rank_times.size(); ++i) {
    const RankBreakdown& b = r.rank_breakdown[i];
    EXPECT_GE(b.busy, 0.0);
    EXPECT_GE(b.comm, 0.0);
    EXPECT_GE(b.idle, 0.0);
    const double total = b.busy + b.comm + b.idle;
    EXPECT_NEAR(total, r.rank_times[i], 1e-9 + 1e-6 * r.rank_times[i]);
    busy_total += b.busy;
  }
  // Unequal charges -> unequal busy times, and someone actually computed.
  EXPECT_GT(busy_total, 0.0);
  EXPECT_LT(r.rank_breakdown[0].busy, r.rank_breakdown[3].busy);
  // Rank 0 sat idle until rank 3's reply was sent.
  EXPECT_GT(r.rank_breakdown[0].idle, 0.0);
}

TEST(Runtime, InvalidProcessorCountThrows) {
  EXPECT_THROW(run(0, MachineModel::free(), [](Communicator&) {}),
               std::invalid_argument);
}

TEST(Runtime, ExceptionPropagatesAsRankError) {
  try {
    run(4, MachineModel::free(), [](Communicator& comm) {
      if (comm.rank() == 2) throw std::runtime_error("boom");
      Message msg;
      (void)comm.recv_status(2, 0, msg);  // others block; must be released
    });
    FAIL() << "expected RankError";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    // The original exception is nested for callers that need its type.
    try {
      std::rethrow_if_nested(e);
      FAIL() << "expected a nested exception";
    } catch (const std::runtime_error& nested) {
      EXPECT_STREQ(nested.what(), "boom");
    }
  }
}

TEST(Runtime, ExceptionWhilePeersBlockedInRecv) {
  try {
    run(3, MachineModel::free(), [](Communicator& comm) {
      if (comm.rank() == 0) throw std::logic_error("fail");
      Message msg;
      (void)comm.recv_status(0, 1, msg);  // would deadlock without abort
    });
    FAIL() << "expected RankError";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 0);
    try {
      std::rethrow_if_nested(e);
      FAIL() << "expected a nested exception";
    } catch (const std::logic_error&) {
    }
  }
}

TEST(Runtime, ConcurrentFailuresAllJoinedLowestRankWins) {
  try {
    run(6, MachineModel::free(), [](Communicator& comm) {
      // Ranks 1, 3, 5 all throw concurrently; the rest block in a recv
      // that abort must release. Every thread must be joined regardless.
      if (comm.rank() % 2 == 1) {
        throw std::runtime_error("fail-" + std::to_string(comm.rank()));
      }
      Message msg;
      (void)comm.recv_status(comm.rank() + 1, 0, msg);
    });
    FAIL() << "expected RankError";
  } catch (const RankError& e) {
    EXPECT_EQ(e.rank(), 1);  // lowest-ranked original failure
    EXPECT_NE(std::string(e.what()).find("fail-1"), std::string::npos);
  }
}

TEST(PointToPoint, PayloadAndMetadataDelivered) {
  run(2, MachineModel::free(), [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::any(std::string("hello")), 5);
    } else {
      Message m = recv_ok(comm, 0, 7);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.bytes, 5u);
      EXPECT_EQ(m.take<std::string>(), "hello");
    }
  });
}

TEST(PointToPoint, FifoPerSourceAndTag) {
  run(2, MachineModel::free(), [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(1, 3, std::any(i), 4);
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(recv_ok(comm, 0, 3).take<int>(), i);
      }
    }
  });
}

TEST(PointToPoint, TagSelectivity) {
  run(2, MachineModel::free(), [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::any(std::string("one")), 3);
      comm.send(1, 2, std::any(std::string("two")), 3);
    } else {
      // Receive tag 2 first even though tag 1 was sent first.
      EXPECT_EQ(recv_ok(comm, 0, 2).take<std::string>(), "two");
      EXPECT_EQ(recv_ok(comm, 0, 1).take<std::string>(), "one");
    }
  });
}

TEST(VirtualTime, RecvAdvancesToArrival) {
  MachineModel m = MachineModel::free();
  m.latency = 1.0;
  m.byte_cost = 0.5;
  const auto r = run(2, m, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(10.0);
      comm.send(1, 0, std::any(0), 4);  // stamped at 10 + latency = 11
    } else {
      (void)recv_ok(comm, 0, 0);
      // arrival = 11 (stamp) + 1 (latency) + 4 * 0.5 (transfer) = 14.
      EXPECT_DOUBLE_EQ(comm.clock().now(), 14.0);
    }
  });
  EXPECT_DOUBLE_EQ(r.makespan, 14.0);
}

TEST(VirtualTime, RecvNeverMovesClockBackwards) {
  MachineModel m = MachineModel::free();
  run(2, m, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::any(0), 0);
    } else {
      comm.clock().advance(100.0);
      (void)recv_ok(comm, 0, 0);
      EXPECT_DOUBLE_EQ(comm.clock().now(), 100.0);
    }
  });
}

TEST(VirtualTime, ChargesScaleWithModel) {
  MachineModel m = MachineModel::free();
  m.cell_cost = 2.0;
  m.index_char_cost = 3.0;
  m.pair_cost = 5.0;
  m.find_cost = 7.0;
  const auto r = run(1, m, [](Communicator& comm) {
    comm.charge_cells(2);
    comm.charge_index_chars(1);
    comm.charge_pairs(1);
    comm.charge_finds(1);
  });
  EXPECT_DOUBLE_EQ(r.makespan, 4.0 + 3.0 + 5.0 + 7.0);
}

TEST(Counters, SummedAcrossRanks) {
  const auto r = run(4, MachineModel::free(), [](Communicator& comm) {
    comm.count("pairs", static_cast<std::uint64_t>(comm.rank()));
    comm.count("pairs", 1);
    if (comm.rank() == 0) comm.count("special");
  });
  EXPECT_EQ(r.counter("pairs"), 0u + 1 + 2 + 3 + 4u);
  EXPECT_EQ(r.counter("special"), 1u);
  EXPECT_EQ(r.counter("missing"), 0u);
}

TEST(Runtime, MasterWorkerEchoPattern) {
  // Miniature of the PaCE protocol: workers send requests; master replies.
  const int p = 6;
  const auto r = run(p, MachineModel::free(), [p](Communicator& comm) {
    constexpr int kReq = 1, kRep = 2;
    if (comm.rank() == 0) {
      for (int w = 1; w < p; ++w) {
        Message m = recv_ok(comm, w, kReq);
        comm.send(w, kRep, std::any(m.take<int>() * 2), 4);
      }
    } else {
      comm.send(0, kReq, std::any(comm.rank()), 4);
      EXPECT_EQ(recv_ok(comm, 0, kRep).take<int>(), comm.rank() * 2);
    }
  });
  EXPECT_EQ(r.rank_times.size(), static_cast<std::size_t>(p));
}

TEST(Runtime, ManyRanksScale) {
  // 128 threads must start, exchange, and tear down cleanly.
  const auto r = run(128, MachineModel::free(), [](Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 9, std::any(comm.rank()), 4);
    } else {
      std::int64_t sum = 0;
      for (int w = 1; w < comm.size(); ++w) {
        sum += recv_ok(comm, w, 9).take<int>();
      }
      EXPECT_EQ(sum, 127 * 128 / 2);
    }
  });
  EXPECT_EQ(r.rank_times.size(), 128u);
}

}  // namespace
}  // namespace pclust::mpsim
