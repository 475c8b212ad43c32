#include "pclust/mpsim/runtime.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "pclust/util/trace.hpp"
#include "transport.hpp"

namespace pclust::mpsim {

namespace {

RunResult run_impl(int p, const MachineModel& model, const FaultPlan* plan,
                   const std::function<void(Communicator&)>& fn,
                   const std::string& phase = "",
                   const std::function<std::string(int)>& level_of = {}) {
  if (p < 1) throw std::invalid_argument("mpsim::run: p must be >= 1");
  if (plan) plan->validate(p);
  std::vector<std::string> levels(static_cast<std::size_t>(p));
  const auto level = [&levels](int r) -> std::string& {
    return levels[static_cast<std::size_t>(r)];
  };
  for (int r = 0; level_of && r < p; ++r) level(r) = level_of(r);

  // A level-attributed phase draws its own timeline (see run_phase).
  const bool draw = level_of && util::trace::enabled();
  const int pid = draw ? util::trace::begin_process("sim:" + phase) : 0;
  for (int r = 0; draw && r < p; ++r) {
    util::trace::name_thread(
        pid, r, r == 0 ? level(r) : level(r) + "-" + std::to_string(r));
  }

  Transport transport(p, plan);
  std::vector<std::unique_ptr<Communicator>> comms;
  comms.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const double crash_at =
        plan ? plan->crash_time(r) : std::numeric_limits<double>::infinity();
    const double factor = plan ? plan->slowdown(r) : 1.0;
    comms.push_back(
        std::make_unique<Communicator>(transport, r, model, crash_at, factor));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  std::vector<int> crashed;
  std::mutex crashed_mutex;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms[static_cast<std::size_t>(r)]);
      } catch (const RankCrashed&) {
        // Planned fault: the Communicator already marked the rank failed in
        // the transport; survivors keep running.
        std::lock_guard<std::mutex> lock(crashed_mutex);
        crashed.push_back(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        transport.abort();  // release peers blocked in a receive
      }
    });
  }
  // Join every thread before touching errors — even when several ranks
  // throw concurrently.
  for (auto& t : threads) t.join();

  // Prefer the lowest-ranked original failure over secondary Aborted
  // unwinds, and attach the failing rank's id, the phase label, and the
  // rank's virtual time at death to what escapes.
  const auto rank_vtime = [&](int r) {
    return comms[static_cast<std::size_t>(r)]->clock().now();
  };
  int aborted_rank = -1;
  for (int r = 0; r < p; ++r) {
    const auto& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const Aborted&) {
      if (aborted_rank < 0) aborted_rank = r;
    } catch (const std::exception& ex) {
      std::throw_with_nested(
          RankError(r, ex.what(), phase, rank_vtime(r), level(r)));
    } catch (...) {
      std::throw_with_nested(RankError(r, "unknown exception", phase,
                                       rank_vtime(r), level(r)));
    }
  }
  if (aborted_rank >= 0) {
    try {
      std::rethrow_exception(errors[static_cast<std::size_t>(aborted_rank)]);
    } catch (const std::exception& ex) {
      std::throw_with_nested(RankError(aborted_rank, ex.what(), phase,
                                       rank_vtime(aborted_rank),
                                       level(aborted_rank)));
    }
  }

  RunResult result;
  result.phase = phase;
  std::sort(crashed.begin(), crashed.end());
  result.crashed_ranks = std::move(crashed);
  result.rank_times.reserve(static_cast<std::size_t>(p));
  result.rank_breakdown.reserve(static_cast<std::size_t>(p));
  for (const auto& comm : comms) {
    result.rank_times.push_back(comm->clock().now());
    result.rank_breakdown.push_back(RankBreakdown{
        comm->busy_time(), comm->comm_time(), comm->idle_time()});
    result.makespan = std::max(result.makespan, comm->clock().now());
    for (const auto& [key, value] : comm->counters()) {
      result.counters[key] += value;
    }
  }
  for (const int r : result.crashed_ranks) {
    result.fault_events.push_back(
        (level(r).empty() ? std::string() : level(r) + " ") + "rank " +
        std::to_string(r) + " crashed at vt=" +
        std::to_string(result.rank_times[static_cast<std::size_t>(r)]) +
        "s (planned fault)");
  }
  for (const auto& comm : comms) {
    for (const auto& event : comm->notes()) {
      result.fault_events.push_back(event);
    }
  }
  for (int r = 0; draw && r < p; ++r) {
    const bool died = std::binary_search(result.crashed_ranks.begin(),
                                         result.crashed_ranks.end(), r);
    util::trace::complete(
        pid, r, died ? "rank(crashed)" : "rank", "sim", 0.0,
        result.rank_times[static_cast<std::size_t>(r)] * 1e6);
  }
  if (draw) util::trace::set_current_pid(0);
  result.rank_levels = std::move(levels);
  return result;
}

}  // namespace

RunResult run(int p, const MachineModel& model,
              const std::function<void(Communicator&)>& fn) {
  return run_impl(p, model, nullptr, fn);
}

RunResult run(int p, const MachineModel& model, const FaultPlan& plan,
              const std::function<void(Communicator&)>& fn) {
  return run_impl(p, model, &plan, fn);
}

RunResult run_phase(const std::string& phase, int p,
                    const MachineModel& model, const FaultPlan* plan,
                    const std::function<void(Communicator&)>& fn) {
  return run_impl(p, model, plan, fn, phase);
}

RunResult run_phase(const std::string& phase, int p,
                    const MachineModel& model, const FaultPlan* plan,
                    const std::function<void(Communicator&)>& fn,
                    const std::function<std::string(int)>& level_of) {
  return run_impl(p, model, plan, fn, phase, level_of);
}

}  // namespace pclust::mpsim
