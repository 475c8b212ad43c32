#include "pclust/pace/provenance.hpp"

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"

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

}  // namespace pclust::pace
