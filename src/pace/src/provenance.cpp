#include "pclust/pace/provenance.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"
#include "pclust/dsu/union_find.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {

prov::Edge ccd_edge_from_verdict(const Verdict& v) {
  prov::Edge e;
  e.a = v.a;
  e.b = v.b;
  e.phase = prov::Phase::kCcd;
  e.rule = prov::Rule::kOverlap;
  e.score = v.score;
  e.matches = v.matches;
  e.columns = v.columns;
  e.a_span = v.a_span;
  e.b_span = v.b_span;
  return e;
}

std::vector<prov::Edge> derive_rr_provenance(const seq::SequenceSet& set,
                                             const RedundancyResult& rr,
                                             const PaceParams& params,
                                             exec::Pool* pool) {
  std::vector<align::PairJob> jobs;
  std::vector<seq::SeqId> removed;
  jobs.reserve(rr.removed_count());
  removed.reserve(rr.removed_count());
  for (seq::SeqId id = 0; id < rr.removed.size(); ++id) {
    if (!rr.removed[id]) continue;
    jobs.push_back({set.residues(id), set.residues(rr.container[id])});
    removed.push_back(id);
  }
  std::vector<align::AlignmentResult> results(jobs.size());
  align::align_score_batch(jobs.data(), jobs.size(), align::blosum62(),
                           results.data(), pool);

  std::vector<prov::Edge> edges;
  edges.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const align::PredicateOutcome out = align::containment_outcome(
        results[k], jobs[k].a.size(), params.containment);
    // The phase's (possibly banded) decision already stands; the canonical
    // full-DP alignment is recorded as evidence even in the rare case its
    // cutoff check disagrees with the banded filter's.
    prov::Edge e;
    e.a = removed[k];
    e.b = rr.container[removed[k]];
    e.phase = prov::Phase::kRr;
    e.rule = prov::Rule::kContainment;
    e.score = out.alignment.score;
    e.matches = out.alignment.matches;
    e.columns = out.alignment.columns;
    e.a_span = out.alignment.a_end - out.alignment.a_begin;
    e.b_span = out.alignment.b_end - out.alignment.b_begin;
    edges.push_back(e);
  }
  return edges;
}

std::vector<prov::Edge> derive_ccd_provenance(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params,
    const std::vector<std::vector<seq::SeqId>>& components,
    exec::Pool* pool) {
  std::unordered_map<seq::SeqId, std::uint32_t> dense;
  dense.reserve(ids.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) dense[ids[i]] = i;

  // Final component label per dense id (singletons keep a unique label).
  std::vector<std::uint32_t> label(ids.size());
  for (std::uint32_t i = 0; i < label.size(); ++i) label[i] = i;
  for (std::uint32_t c = 0; c < components.size(); ++c) {
    for (const seq::SeqId member : components[c]) {
      const auto it = dense.find(member);
      if (it == dense.end()) {
        throw std::invalid_argument(
            "derive_ccd_provenance: component member is not in the id set");
      }
      label[it->second] = static_cast<std::uint32_t>(ids.size()) + c;
    }
  }

  // Admit-then-re-check, as in serial CCD (run_serial in engine.hpp): pairs
  // the replay filter admits are aligned as one batch, then walked in
  // stream order against the union-find again. Every earlier pair is
  // resolved by then, so a pair connected in the meantime is dropped
  // exactly where the one-pair-at-a-time replay would have skipped it.
  const std::int64_t band =
      params.band > 0 ? static_cast<std::int64_t>(params.band) : -1;
  std::vector<prov::Edge> edges;
  dsu::UnionFind uf(ids.size());
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t realigned = 0;
  std::vector<PairTask> batch;
  std::vector<align::PairJob> jobs;
  std::vector<align::AlignmentResult> results;
  const auto flush = [&] {
    jobs.clear();
    for (const PairTask& task : batch) {
      jobs.push_back({set.residues(task.a), set.residues(task.b),
                      task.diagonal(), band});
    }
    results.resize(jobs.size());
    align::align_score_batch(jobs.data(), jobs.size(), align::blosum62(),
                             results.data(), pool);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const std::uint32_t da = dense.at(batch[k].a);
      const std::uint32_t db = dense.at(batch[k].b);
      if (uf.same(da, db)) continue;
      ++realigned;
      const align::PredicateOutcome out = align::overlap_outcome(
          results[k], jobs[k].a.size(), jobs[k].b.size(), params.overlap);
      if (!out.accepted) continue;
      uf.merge(da, db);
      Verdict v;
      v.a = batch[k].a;
      v.b = batch[k].b;
      v.code = 1;
      v.score = out.alignment.score;
      v.matches = out.alignment.matches;
      v.columns = out.alignment.columns;
      v.a_span = out.alignment.a_end - out.alignment.a_begin;
      v.b_span = out.alignment.b_end - out.alignment.b_begin;
      edges.push_back(ccd_edge_from_verdict(v));
    }
    batch.clear();
  };
  for (const PairTask& task : canonical_pairs(set, ids, params, pool)) {
    if (!seen.insert(task.pair_key()).second) continue;
    const std::uint32_t da = dense.at(task.a);
    const std::uint32_t db = dense.at(task.b);
    if (uf.same(da, db)) continue;  // admit against the forest so far
    // Provable reject: the final partition is the transitive closure of
    // accepted overlaps, so a pair straddling two final components was
    // necessarily rejected — skip it without paying for the alignment.
    if (label[da] != label[db]) continue;
    batch.push_back(task);
    if (batch.size() >= params.batch_size) flush();
  }
  flush();
  util::metrics().counter("prov.ccd_replay_alignments").add(realigned);
  return edges;
}

}  // namespace pclust::pace
