#include "pclust/pace/components.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "pclust/align/predicates.hpp"
#include "pclust/dsu/union_find.hpp"
#include "pclust/pace/provenance.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {

std::unordered_map<seq::SeqId, std::uint32_t> dense_index(
    const std::vector<seq::SeqId>& ids) {
  std::unordered_map<seq::SeqId, std::uint32_t> dense;
  dense.reserve(ids.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) dense[ids[i]] = i;
  return dense;
}

namespace {

/// One sub-master's replica of the CCD state: its own union–find over the
/// same dense id universe, fed by the shard's verdicts plus the root's
/// synced events. Union–find merge is confluent AND idempotent, so shard
/// replicas may lag or replay events in any order and still converge to
/// (a refinement consistent with) the root's authoritative forest —
/// a replica only ever filters pairs its shard has PROVEN connected,
/// which keeps filtering sound while cross-shard merges are in flight.
class CcdShard final : public ShardPolicy {
 public:
  CcdShard(const std::unordered_map<seq::SeqId, std::uint32_t>& dense,
           std::size_t universe)
      : dense_(dense) {
    uf_.reset(universe);
  }

  bool needs_alignment(const PairTask& task) override {
    return !uf_.same(dense_.at(task.a), dense_.at(task.b));
  }

  bool absorb(const Verdict& v) override {
    return v.code == 1 && uf_.merge(dense_.at(v.a), dense_.at(v.b));
  }

 private:
  const std::unordered_map<seq::SeqId, std::uint32_t>& dense_;
  dsu::UnionFind uf_;
};

class CcdMaster final : public MasterPolicy {
 public:
  explicit CcdMaster(const std::vector<seq::SeqId>& ids)
      : ids_(ids), dense_(dense_index(ids)) {
    uf_.reset(ids.size());
  }

  bool needs_alignment(const PairTask& task) override {
    return !uf_.same(dense_.at(task.a), dense_.at(task.b));
  }

  void apply(const Verdict& v) override {
    if (v.code == 1 && uf_.merge(dense_.at(v.a), dense_.at(v.b))) {
      util::metrics().counter("ccd.uf_merges").add(1);
      if (on_merge_) on_merge_(v);
    }
  }

  /// Merge-provenance recorder: fired exactly once per SURVIVING union—find
  /// merge, at the moment of decision, with the verdict that caused it.
  /// Sound for the serial driver (one authoritative state, in stream
  /// order); the parallel/hierarchical engines instead derive provenance
  /// by replaying the serial driver (CcdReplay below).
  void set_merge_recorder(std::function<void(const Verdict&)> recorder) {
    on_merge_ = std::move(recorder);
  }

  /// CCD supports hierarchical masters: apply is a union–find merge —
  /// confluent and idempotent — so shard replicas and root event replay
  /// are sound. Shards share the read-only dense_ map (the root's apply
  /// only mutates uf_, a different member, so concurrent shard reads of
  /// dense_ are race-free).
  std::unique_ptr<ShardPolicy> make_shard() override {
    return std::make_unique<CcdShard>(dense_, ids_.size());
  }

  /// Snapshot the union–find forest for checkpointing.
  [[nodiscard]] const std::vector<std::uint32_t>& parents() const {
    return uf_.parents();
  }

  /// Restore a parents() snapshot (resume). Throws std::invalid_argument
  /// if the snapshot does not match this run's id universe.
  void restore(const std::vector<std::uint32_t>& parents) {
    if (parents.size() != ids_.size()) {
      throw std::invalid_argument(
          "CCD resume: union–find snapshot size does not match the input "
          "id set");
    }
    uf_.restore(parents);
  }

  [[nodiscard]] std::vector<std::vector<seq::SeqId>> components() const {
    auto sets = uf_.extract_sets();
    std::vector<std::vector<seq::SeqId>> out;
    out.reserve(sets.size());
    for (auto& s : sets) {
      std::vector<seq::SeqId> members;
      members.reserve(s.size());
      for (auto dense : s) members.push_back(ids_[dense]);
      std::sort(members.begin(), members.end());
      out.push_back(std::move(members));
    }
    std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
      if (x.size() != y.size()) return x.size() > y.size();
      return x.front() < y.front();
    });
    return out;
  }

  /// Publish the master's union–find footprint under the phase prefix.
  void record_memory(const char* phase_label) const {
    util::record_memory(uf_.memory_usage(),
                        phase_label ? phase_label : "ccd");
  }

 private:
  const std::vector<seq::SeqId>& ids_;
  std::unordered_map<seq::SeqId, std::uint32_t> dense_;
  dsu::UnionFind uf_;
  std::function<void(const Verdict&)> on_merge_;
};

/// Master policy of the merge-provenance replay (pace/provenance.hpp): a
/// fresh union–find over the survivors that also rejects, unaligned, pairs
/// straddling two final components (provable rejects), and emits the
/// evidence edge of every merge. Records no metrics, so a replay leaves
/// `ccd.uf_merges` untouched.
class CcdReplay final : public MasterPolicy {
 public:
  CcdReplay(const std::vector<seq::SeqId>& ids,
            const std::vector<std::vector<seq::SeqId>>& components)
      : dense_(dense_index(ids)), label_(ids.size()) {
    // Final component label per dense id (singletons keep a unique label).
    for (std::uint32_t i = 0; i < label_.size(); ++i) label_[i] = i;
    for (std::uint32_t c = 0; c < components.size(); ++c) {
      for (const seq::SeqId member : components[c]) {
        const auto it = dense_.find(member);
        if (it == dense_.end()) {
          throw std::invalid_argument(
              "derive_ccd_provenance: component member is not in the id "
              "set");
        }
        label_[it->second] = static_cast<std::uint32_t>(ids.size()) + c;
      }
    }
    uf_.reset(ids.size());
  }

  bool needs_alignment(const PairTask& task) override {
    const std::uint32_t a = dense_.at(task.a);
    const std::uint32_t b = dense_.at(task.b);
    return label_[a] == label_[b] && !uf_.same(a, b);
  }

  void apply(const Verdict& v) override {
    if (v.code == 1 && uf_.merge(dense_.at(v.a), dense_.at(v.b))) {
      edges_.push_back(ccd_edge_from_verdict(v));
    }
  }

  [[nodiscard]] std::vector<prov::Edge> take_edges() {
    return std::move(edges_);
  }

 private:
  std::unordered_map<seq::SeqId, std::uint32_t> dense_;
  std::vector<std::uint32_t> label_;
  dsu::UnionFind uf_;
  std::vector<prov::Edge> edges_;
};

}  // namespace

void CcdWorker::jobs(const PairTask& task,
                     std::vector<align::PairJob>& out) const {
  const std::int64_t band = params_.band > 0
                                ? static_cast<std::int64_t>(params_.band)
                                : std::int64_t{-1};
  out.push_back({set_.residues(task.a), set_.residues(task.b),
                 task.diagonal(), band});
}

Verdict CcdWorker::verdict(
    const PairTask& task,
    std::span<const align::AlignmentResult> results) const {
  const align::AlignmentResult& r = results.front();
  const bool accepted = align::overlap_outcome(r, set_.length(task.a),
                                               set_.length(task.b),
                                               params_.overlap)
                            .accepted;
  // Evidence for the provenance recorder and B_d; the engine adds cells.
  return Verdict{task.a, task.b, static_cast<std::uint8_t>(accepted),
                 r.score, r.matches, r.columns, r.a_end - r.a_begin,
                 r.b_end - r.b_begin};
}

std::size_t ComponentsResult::count_with_min_size(std::size_t min_size) const {
  std::size_t n = 0;
  for (const auto& c : components) n += c.size() >= min_size ? 1 : 0;
  return n;
}

std::size_t ComponentsResult::sequences_in_min_size(
    std::size_t min_size) const {
  std::size_t n = 0;
  for (const auto& c : components) {
    if (c.size() >= min_size) n += c.size();
  }
  return n;
}

ComponentsResult detect_components(const seq::SequenceSet& set,
                                   const std::vector<seq::SeqId>& ids, int p,
                                   const mpsim::MachineModel& model,
                                   const PaceParams& params, exec::Pool* pool,
                                   const mpsim::FaultPlan* plan) {
  ComponentsResult result;
  CcdMaster master(ids);
  const CcdWorker worker(set, params);
  result.run = run_parallel(set, ids, p, model, params, master, worker,
                            &result.counters, pool, plan);
  master.record_memory(params.phase_label);
  result.components = master.components();
  return result;
}

ComponentsResult detect_components_serial(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params, exec::Pool* pool, const CcdProgress* resume,
    std::uint64_t checkpoint_stride,
    const std::function<void(const CcdProgress&)>& on_checkpoint,
    const std::function<void(const Verdict&)>& on_merge) {
  ComponentsResult result;
  CcdMaster master(ids);
  const CcdWorker worker(set, params);
  if (on_merge) master.set_merge_recorder(on_merge);

  SerialHooks hooks;
  if (resume) {
    master.restore(resume->parents);
    hooks.start_pair = resume->next_pair;
  }
  if (checkpoint_stride > 0 && on_checkpoint) {
    hooks.checkpoint_stride = checkpoint_stride;
    hooks.checkpoint = [&](std::uint64_t next_pair) {
      on_checkpoint(CcdProgress{master.parents(), next_pair});
    };
  }
  const bool use_hooks = resume || hooks.checkpoint;

  result.counters = run_serial(set, ids, params, master, worker, pool,
                               use_hooks ? &hooks : nullptr);
  record_engine_counters(result.counters);
  master.record_memory(params.phase_label);
  result.components = master.components();
  return result;
}

std::vector<prov::Edge> derive_ccd_provenance(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params,
    const std::vector<std::vector<seq::SeqId>>& components,
    exec::Pool* pool) {
  CcdReplay replay(ids, components);
  const CcdWorker worker(set, params);
  const EngineCounters c = run_serial(set, ids, params, replay, worker, pool);
  util::metrics().counter("prov.ccd_replay_alignments").add(c.aligned_pairs);
  return replay.take_edges();
}

}  // namespace pclust::pace
