#include "pclust/pace/redundancy.hpp"

#include <numeric>
#include <span>
#include <string_view>
#include <vector>

#include "pclust/align/predicates.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {

namespace {

/// RR verdict codes.
constexpr std::uint8_t kNone = 0;
constexpr std::uint8_t kAInB = 1;
constexpr std::uint8_t kBInA = 2;
constexpr std::uint8_t kMutual = 3;

class RrMaster final : public MasterPolicy {
 public:
  explicit RrMaster(std::size_t n, RedundancyResult& result)
      : result_(result), dependents_(n, 0) {
    result_.removed.assign(n, 0);
    result_.container.assign(n, seq::kInvalidSeqId);
  }

  bool needs_alignment(const PairTask& task) override {
    return !result_.removed[task.a] && !result_.removed[task.b];
  }

  void apply(const Verdict& v) override {
    if (v.code != kNone) {
      util::metrics().counter("rr.containment_hits").add(1);
      if (v.code == kMutual) {
        util::metrics().counter("rr.containment_mutual").add(1);
      }
    }
    // Remove a sequence only when its container survives, and never remove
    // a sequence that is itself the recorded container of others — chains
    // like a ⊂ b ⊂ c would otherwise silently degrade the 95 % guarantee
    // (a is only ~90 % similar to c).
    const auto remove = [&](seq::SeqId victim, seq::SeqId keeper) {
      if (result_.removed[keeper] || result_.removed[victim]) return;
      if (dependents_[victim] > 0) return;  // victim anchors removed seqs
      result_.removed[victim] = 1;
      result_.container[victim] = keeper;
      ++dependents_[keeper];
      util::metrics().counter("rr.sequences_removed").add(1);
    };
    switch (v.code) {
      case kAInB: remove(v.a, v.b); break;
      case kBInA: remove(v.b, v.a); break;
      case kMutual:
        // Either direction is valid; prefer the one whose victim anchors
        // nothing (otherwise the dependents rule would veto the removal).
        if (dependents_[v.b] > 0 && dependents_[v.a] == 0) {
          remove(v.a, v.b);
        } else {
          remove(v.b, v.a);  // default: keep the smaller id
        }
        break;
      default: break;
    }
  }

 private:
  RedundancyResult& result_;
  std::vector<std::uint32_t> dependents_;  // removed sequences anchored here
};

class RrWorker final : public WorkerPolicy {
 public:
  RrWorker(const seq::SequenceSet& set, const PaceParams& params)
      : set_(set), params_(params) {}

  /// Each containment direction whose inner sequence can reach the
  /// coverage cutoff: a-in-b first, then b-in-a.
  void jobs(const PairTask& task,
            std::vector<align::PairJob>& out) const override {
    const auto res_a = set_.residues(task.a);
    const auto res_b = set_.residues(task.b);
    const std::int64_t band =
        params_.band > 0 ? static_cast<std::int64_t>(params_.band)
                         : std::int64_t{-1};
    if (gate(res_a, res_b)) {
      out.push_back({res_a, res_b, task.diagonal(), band});
    }
    if (gate(res_b, res_a)) {
      out.push_back({res_b, res_a, -task.diagonal(), band});
    }
  }

  Verdict verdict(
      const PairTask& task,
      std::span<const align::AlignmentResult> results) const override {
    const auto res_a = set_.residues(task.a);
    const auto res_b = set_.residues(task.b);
    std::size_t next = 0;
    const auto contained = [&](std::string_view inner,
                               std::string_view outer) {
      return gate(inner, outer) &&
             align::containment_outcome(results[next++], inner.size(),
                                        params_.containment)
                 .accepted;
    };
    const bool a_in_b = contained(res_a, res_b);
    const bool b_in_a = contained(res_b, res_a);
    return Verdict{task.a, task.b, code_of(a_in_b, b_in_a)};
  }

 private:
  /// The inner sequence can only reach the coverage cutoff against the
  /// outer one if it is not much longer than it.
  bool gate(std::string_view inner, std::string_view outer) const {
    return static_cast<double>(inner.size()) *
               params_.containment.min_coverage <=
           static_cast<double>(outer.size());
  }

  static std::uint8_t code_of(bool a_in_b, bool b_in_a) {
    if (a_in_b && b_in_a) return kMutual;
    if (a_in_b) return kAInB;
    if (b_in_a) return kBInA;
    return kNone;
  }

  const seq::SequenceSet& set_;
  const PaceParams& params_;
};

std::vector<seq::SeqId> all_ids(const seq::SequenceSet& set) {
  std::vector<seq::SeqId> ids(set.size());
  std::iota(ids.begin(), ids.end(), seq::SeqId{0});
  return ids;
}

}  // namespace

std::vector<seq::SeqId> RedundancyResult::survivors() const {
  std::vector<seq::SeqId> out;
  out.reserve(removed.size());
  for (seq::SeqId id = 0; id < removed.size(); ++id) {
    if (!removed[id]) out.push_back(id);
  }
  return out;
}

std::size_t RedundancyResult::removed_count() const {
  std::size_t n = 0;
  for (auto r : removed) n += r;
  return n;
}

RedundancyResult remove_redundant(const seq::SequenceSet& set, int p,
                                  const mpsim::MachineModel& model,
                                  const PaceParams& params, exec::Pool* pool,
                                  const mpsim::FaultPlan* plan) {
  RedundancyResult result;
  RrMaster master(set.size(), result);
  const RrWorker worker(set, params);
  result.run = run_parallel(set, all_ids(set), p, model, params, master,
                            worker, &result.counters, pool, plan);
  return result;
}

RedundancyResult remove_redundant_serial(const seq::SequenceSet& set,
                                         const PaceParams& params,
                                         exec::Pool* pool) {
  RedundancyResult result;
  RrMaster master(set.size(), result);
  const RrWorker worker(set, params);
  result.counters =
      run_serial(set, all_ids(set), params, master, worker, pool);
  record_engine_counters(result.counters);
  return result;
}

}  // namespace pclust::pace
