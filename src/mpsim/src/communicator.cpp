#include "pclust/mpsim/communicator.hpp"

#include <string>

#include "pclust/util/metrics.hpp"
#include "transport.hpp"

namespace pclust::mpsim {

Communicator::Communicator(Transport& transport, int rank,
                           const MachineModel& model, double crash_at,
                           double compute_factor)
    : transport_(transport),
      rank_(rank),
      model_(model),
      crash_at_(crash_at),
      compute_factor_(compute_factor) {}

int Communicator::size() const { return transport_.size(); }

void Communicator::check_crash() {
  if (crashed_ || clock_.now() < crash_at_) return;
  crashed_ = true;
  transport_.mark_failed(rank_);
  throw RankCrashed(rank_);
}

void Communicator::send(int dst, int tag, std::any payload,
                        std::uint64_t bytes) {
  check_crash();
  record_link_traffic(dst, bytes);
  // Sender pays the injection overhead; the receiver's clock is advanced at
  // take time from the stamp.
  advance_comm(model_.latency);
  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.bytes = bytes;
  msg.send_time = clock_.now();
  transport_.deliver(dst, std::move(msg));
}

RecvStatus Communicator::recv_status(int src, int tag, Message& out,
                                     double timeout_seconds) {
  check_crash();
  const RecvStatus status =
      transport_.take_status(rank_, src, tag, out, timeout_seconds);
  if (status == RecvStatus::kOk) {
    const double wire =
        model_.latency + static_cast<double>(out.bytes) * model_.byte_cost;
    advance_to_comm(out.send_time + wire, wire);
  }
  return status;
}

void Communicator::count(const std::string& key, std::uint64_t delta) {
  counters_[key] += delta;
}

void Communicator::record_link_traffic(int dst, std::uint64_t bytes) {
  if (dst < 0) return;
  if (static_cast<std::size_t>(dst) >= link_keys_.size()) {
    link_keys_.resize(static_cast<std::size_t>(dst) + 1);
  }
  LinkKeys& keys = link_keys_[static_cast<std::size_t>(dst)];
  if (keys.msgs.empty()) {
    const std::string link =
        "link." + std::to_string(rank_) + "->" + std::to_string(dst);
    keys.msgs = link + ".msgs";
    keys.bytes = link + ".bytes";
  }
  counters_[keys.msgs] += 1;
  counters_[keys.bytes] += bytes;
  // Process-wide totals (all phases, all ranks) for the run report.
  static util::Counter& msgs = util::metrics().counter("mpsim.messages_sent");
  static util::Counter& sent = util::metrics().counter("mpsim.bytes_sent");
  msgs.add(1);
  sent.add(bytes);
}

}  // namespace pclust::mpsim
