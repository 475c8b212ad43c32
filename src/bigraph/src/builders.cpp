#include "pclust/bigraph/builders.hpp"

#include <unordered_map>
#include <utility>

#include "pclust/pace/components.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/suffix/kmer_index.hpp"
#include "pclust/util/memgov.hpp"

namespace pclust::bigraph {

namespace {

/// B_d's master policy: every distinct candidate pair needs its alignment
/// (the engine's seen-set already drops repeats, and no transitive-closure
/// filter applies), and each accepted overlap becomes the dense edges
/// (i, j) and (j, i).
class BdMaster final : public pace::MasterPolicy {
 public:
  explicit BdMaster(const std::vector<seq::SeqId>& members)
      : dense_(pace::dense_index(members)) {}

  bool needs_alignment(const pace::PairTask&) override { return true; }

  void apply(const pace::Verdict& v) override {
    cells_ += v.cells;
    if (v.code != 1) return;
    const std::uint32_t i = dense_.at(v.a);
    const std::uint32_t j = dense_.at(v.b);
    edges_.push_back(Edge{i, j});
    edges_.push_back(Edge{j, i});
  }

  [[nodiscard]] std::uint64_t cells() const { return cells_; }
  [[nodiscard]] std::vector<Edge> take_edges() { return std::move(edges_); }

 private:
  std::unordered_map<seq::SeqId, std::uint32_t> dense_;
  std::uint64_t cells_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace

ComponentGraph build_bd(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BdParams& params, exec::Pool* pool) {
  ComponentGraph out;
  out.reduction = Reduction::kDuplicate;
  out.members = members;

  // One engine run over the component. The filter never rejects, so a wide
  // flush speculates nothing: batches of kFlushPairs keep the SIMD lanes
  // full, and pairs keep the longest maximal match as their band seed
  // (the stream is longest-first).
  constexpr std::uint32_t kFlushPairs = 16 * 1024;
  pace::PaceParams pp = params.pace;
  pp.phase_label = "bgg";
  pp.batch_size = kFlushPairs;
  BdMaster master(members);
  const pace::CcdWorker worker(set, pp);
  const pace::EngineCounters c =
      pace::run_serial(set, members, pp, master, worker, pool);
  out.candidate_pairs = c.promising_pairs;
  out.aligned_pairs = c.aligned_pairs;
  out.alignment_cells = master.cells();
  out.graph = BipartiteGraph(static_cast<std::uint32_t>(members.size()),
                             static_cast<std::uint32_t>(members.size()),
                             master.take_edges());
  return out;
}

ComponentGraph build_bm(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BmParams& params) {
  ComponentGraph out;
  out.reduction = Reduction::kMatchBased;
  out.members = members;

  const auto dense = pace::dense_index(members);

  const suffix::KmerIndex index(set, members, {.w = params.w});
  const util::MemoryCharge charge("bgg", index.memory_usage());

  std::vector<Edge> edges;
  out.words.reserve(index.word_count());
  for (std::size_t w = 0; w < index.word_count(); ++w) {
    const auto l = static_cast<std::uint32_t>(out.words.size());
    out.words.push_back(index.packed_word(w));
    for (seq::SeqId id : index.sequences_of(w)) {
      edges.push_back(Edge{l, dense.at(id)});
      ++out.candidate_pairs;
    }
  }
  out.graph = BipartiteGraph(static_cast<std::uint32_t>(out.words.size()),
                             static_cast<std::uint32_t>(members.size()),
                             std::move(edges));
  return out;
}

}  // namespace pclust::bigraph
