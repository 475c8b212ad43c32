// Replays of single layers on the workload's own data, outside the traced
// decomposition: the alignment kernels (ns per DP cell, batch engine vs
// single-pair scalar scorers) and the suffix index (build vs enumeration),
// whose work the pipeline performs inside the RR and CCD calls.
#include <functional>
#include <utility>

#include "bench.hpp"
#include "pclust/align/batch.hpp"
#include "pclust/align/pairwise.hpp"
#include "pclust/align/scoring.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/suffix/concat_text.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"

namespace perfbench {

namespace {

using namespace pc;

constexpr std::size_t kKernelPairs = 512;
constexpr double kKernelSeconds = 0.2;
constexpr std::uint32_t kBand = 32;

/// Seconds per call of @p once, over repeated calls filling kKernelSeconds
/// (after one warm-up call).
double seconds_per_call(const std::function<void()>& once) {
  once();
  int calls = 0;
  const double t0 = now_seconds();
  double elapsed = 0.0;
  do {
    once();
    ++calls;
    elapsed = now_seconds() - t0;
  } while (elapsed < kKernelSeconds);
  return elapsed / calls;
}

}  // namespace

void replay_kernels(const seq::SequenceSet& set,
                    const std::vector<std::vector<seq::SeqId>>& components,
                    LayerCounts& counts) {
  // Neighbouring members of the largest components: the pairs RR and BGG
  // spend their alignments on.
  std::vector<align::PairJob> unbanded;
  for (const auto& c : components) {
    for (std::size_t i = 0; i + 1 < c.size(); i += 2) {
      if (unbanded.size() == kKernelPairs) break;
      unbanded.push_back({set.residues(c[i]), set.residues(c[i + 1]), 0, -1});
    }
  }
  if (unbanded.empty()) return;
  std::vector<align::PairJob> banded = unbanded;
  for (auto& job : banded) job.band = kBand;

  const align::ScoringScheme& scheme = align::blosum62();
  std::vector<align::AlignmentResult> out(unbanded.size());
  const auto cells = [&out] {
    std::uint64_t total = 0;
    for (const auto& r : out) total += r.cells;
    return static_cast<double>(total);
  };
  const auto ns_per_cell = [&](const std::vector<align::PairJob>& jobs,
                               bool batch) {
    const double secs = seconds_per_call([&] {
      if (batch) {
        align::align_score_batch(jobs.data(), jobs.size(), scheme, out.data());
        return;
      }
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        out[k] = jobs[k].band < 0
                     ? align::local_align_score(jobs[k].a, jobs[k].b, scheme)
                     : align::banded_local_align_score(
                           jobs[k].a, jobs[k].b, scheme, jobs[k].diagonal,
                           static_cast<std::uint32_t>(jobs[k].band));
      }
    });
    return secs * 1e9 / cells();
  };
  counts.add("align.batch_ns_per_cell", ns_per_cell(unbanded, true));
  counts.add("align.scalar_ns_per_cell", ns_per_cell(unbanded, false));
  counts.add("align.banded_batch_ns_per_cell", ns_per_cell(banded, true));
  counts.add("align.banded_scalar_ns_per_cell", ns_per_cell(banded, false));
}

void replay_suffix(const seq::SequenceSet& set,
                   const std::vector<seq::SeqId>& survivors,
                   const pipeline::PipelineConfig& cfg, LayerCounts& counts) {
  exec::Pool pool(cfg.threads);
  const bool pooled = pool.size() > 1;
  suffix::MaximalMatchParams mp;
  mp.min_length = cfg.pace.psi;
  mp.max_node_occurrences = cfg.pace.max_node_occurrences;

  std::vector<seq::SeqId> all(set.size());
  for (seq::SeqId id = 0; id < all.size(); ++id) all[id] = id;

  // The RR index covers every sequence, the CCD index the survivors.
  for (const auto* ids : {&std::as_const(all), &survivors}) {
    const double t0 = now_seconds();
    const suffix::ConcatText text(set, *ids);
    const std::vector<std::int32_t> sa =
        pooled ? suffix::build_suffix_array_parallel(text, pool)
               : suffix::build_suffix_array(text.text(),
                                            seq::kIndexAlphabetSize);
    const std::vector<std::int32_t> lcp =
        pooled ? suffix::build_lcp_parallel(text, sa, pool)
               : suffix::build_lcp(text, sa);
    const suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);
    const auto buckets =
        pooled ? enumerator.prefix_buckets(cfg.pace.bucket_prefix, pool)
               : enumerator.prefix_buckets(cfg.pace.bucket_prefix);
    const double t1 = now_seconds();

    const auto per_bucket = exec::parallel_map<std::uint64_t>(
        pool, buckets.size(), 1, [&](std::size_t k) {
          return enumerator
              .enumerate(buckets[k].lb, buckets[k].rb,
                         [](const suffix::MaximalMatch&) { return true; })
              .pairs_emitted;
        });
    std::uint64_t pairs = 0;
    for (const std::uint64_t p : per_bucket) pairs += p;
    const double t2 = now_seconds();

    counts.add("suffix.index_s", t1 - t0);
    counts.add("suffix.enum_s", t2 - t1);
    counts.add("replay.suffix_pairs", static_cast<double>(pairs));
  }
}

}  // namespace perfbench
