// google-benchmark microbenchmarks of pclust's computational kernels:
// pairwise alignment (full-matrix and score-only), suffix-array + LCP
// construction, maximal-match enumeration, min-wise shingling, and
// union-find.
//
// Before the google-benchmark suite runs, a hand-timed comparison section
// writes BENCH_kernels.json (machine readable: ns/cell, pairs/sec, serial
// vs pooled speedups) so CI and the roadmap scripts can track the two
// acceptance numbers of the execution layer — score-only vs full-matrix,
// and pooled vs serial batched verdicts — without scraping console output.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common.hpp"
#include "pclust/align/batch.hpp"
#include "pclust/align/pairwise.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/dsu/union_find.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/pace/reference.hpp"
#include "pclust/shingle/minwise.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/rng.hpp"

namespace {

using namespace pclust;

seq::SequenceSet bench_sequences(std::size_t n, std::uint32_t mean_length) {
  synth::DatasetSpec spec;
  spec.seed = 99;
  spec.num_sequences = static_cast<std::uint32_t>(n);
  spec.num_families = 4;
  spec.mean_length = mean_length;
  return synth::generate(spec).sequences;
}

// ---------------------------------------------------------------------------
// google-benchmark registrations
// ---------------------------------------------------------------------------

void BM_LocalAlign(benchmark::State& state) {
  const auto set = bench_sequences(64, static_cast<std::uint32_t>(state.range(0)));
  const auto& scheme = align::blosum62();
  std::uint64_t cells = 0;
  seq::SeqId i = 0;
  for (auto _ : state) {
    const auto r = align::local_align(set.residues(i % set.size()),
                                      set.residues((i + 1) % set.size()),
                                      scheme);
    benchmark::DoNotOptimize(r.score);
    cells += r.cells;
    ++i;
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LocalAlign)->Arg(80)->Arg(160)->Arg(320);

void BM_LocalAlignScoreOnly(benchmark::State& state) {
  const auto set = bench_sequences(64, static_cast<std::uint32_t>(state.range(0)));
  const auto& scheme = align::blosum62();
  std::uint64_t cells = 0;
  seq::SeqId i = 0;
  for (auto _ : state) {
    const auto r = align::local_align_score(set.residues(i % set.size()),
                                            set.residues((i + 1) % set.size()),
                                            scheme);
    benchmark::DoNotOptimize(r.score);
    cells += r.cells;
    ++i;
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LocalAlignScoreOnly)->Arg(80)->Arg(160)->Arg(320);

void BM_BandedLocalAlign(benchmark::State& state) {
  const auto set = bench_sequences(64, 160);
  const auto& scheme = align::blosum62();
  std::uint64_t cells = 0;
  seq::SeqId i = 0;
  for (auto _ : state) {
    const auto r = align::banded_local_align(
        set.residues(i % set.size()), set.residues((i + 1) % set.size()),
        scheme, 0, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(r.score);
    cells += r.cells;
    ++i;
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedLocalAlign)->Arg(16)->Arg(32)->Arg(64);

void BM_BandedLocalAlignScoreOnly(benchmark::State& state) {
  const auto set = bench_sequences(64, 160);
  const auto& scheme = align::blosum62();
  std::uint64_t cells = 0;
  seq::SeqId i = 0;
  for (auto _ : state) {
    const auto r = align::banded_local_align_score(
        set.residues(i % set.size()), set.residues((i + 1) % set.size()),
        scheme, 0, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(r.score);
    cells += r.cells;
    ++i;
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedLocalAlignScoreOnly)->Arg(16)->Arg(32)->Arg(64);

void BM_SuffixArray(benchmark::State& state) {
  const auto set = bench_sequences(static_cast<std::size_t>(state.range(0)), 160);
  const suffix::ConcatText text(set);
  for (auto _ : state) {
    auto sa = suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
    benchmark::DoNotOptimize(sa.data());
  }
  state.counters["chars/s"] = benchmark::Counter(
      static_cast<double>(text.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SuffixArray)->Arg(200)->Arg(1000)->Arg(4000);

void BM_LcpArray(benchmark::State& state) {
  const auto set = bench_sequences(1000, 160);
  const suffix::ConcatText text(set);
  const auto sa =
      suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  for (auto _ : state) {
    auto lcp = suffix::build_lcp(text, sa);
    benchmark::DoNotOptimize(lcp.data());
  }
  state.counters["chars/s"] = benchmark::Counter(
      static_cast<double>(text.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LcpArray);

void BM_MaximalMatchEnumeration(benchmark::State& state) {
  const auto set = bench_sequences(static_cast<std::size_t>(state.range(0)), 160);
  const suffix::ConcatText text(set);
  const auto sa =
      suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = suffix::build_lcp(text, sa);
  suffix::MaximalMatchParams mp;
  mp.min_length = 10;
  const suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    enumerator.enumerate(0, static_cast<std::int32_t>(sa.size()) - 1,
                         [&pairs](const suffix::MaximalMatch&) {
                           ++pairs;
                           return true;
                         });
  }
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MaximalMatchEnumeration)->Arg(500)->Arg(2000);

void BM_ShingleSet(benchmark::State& state) {
  std::vector<std::uint32_t> links(static_cast<std::size_t>(state.range(0)));
  std::iota(links.begin(), links.end(), 0u);
  std::uint64_t shingles = 0;
  for (auto _ : state) {
    const auto set = shingle::shingle_set(links, 5, 300, 42);
    shingles += set.size();
    benchmark::DoNotOptimize(shingles);
  }
  state.counters["shingles/s"] = benchmark::Counter(
      static_cast<double>(shingles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShingleSet)->Arg(16)->Arg(64)->Arg(256);

void BM_UnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(7);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ops(n * 4);
  for (auto& [a, b] : ops) {
    a = static_cast<std::uint32_t>(rng.below(n));
    b = static_cast<std::uint32_t>(rng.below(n));
  }
  for (auto _ : state) {
    dsu::UnionFind uf(n);
    for (const auto& [a, b] : ops) uf.merge(a, b);
    benchmark::DoNotOptimize(uf.set_count());
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UnionFind)->Arg(10'000)->Arg(100'000);

// ---------------------------------------------------------------------------
// BENCH_kernels.json: the execution layer's acceptance comparisons
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct AlignTiming {
  double seconds = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t pairs = 0;
  [[nodiscard]] double ns_per_cell() const {
    return cells ? seconds * 1e9 / static_cast<double>(cells) : 0.0;
  }
  [[nodiscard]] double pairs_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0;
  }
};

template <typename F>
AlignTiming time_pairs(const seq::SequenceSet& set, int rounds, F&& one_pair) {
  AlignTiming t;
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (seq::SeqId i = 0; i + 1 < set.size(); ++i) {
      t.cells += one_pair(set.residues(i), set.residues(i + 1));
      ++t.pairs;
    }
  }
  t.seconds = seconds_since(t0);
  return t;
}

void write_json(std::FILE* f) {
  const auto& scheme = align::blosum62();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n  \"kernels\": [\n",
               hw);

  // -- score-only vs full-matrix, unbanded local ---------------------------
  // Every candidate here is timed as the minimum over several interleaved
  // repetitions — on a shared host, noise only ever inflates a wall-clock
  // sample, so the per-candidate minimum is the stable estimate, and
  // interleaving keeps slow phases (frequency scaling, steal time) from
  // landing on one candidate only. The batch section below uses the same
  // estimator, so the gated ratios stay steady run to run.
  const auto set = bench_sequences(64, 200);
  constexpr int kPairReps = 9;
  AlignTiming full, score, banded_full, banded_score;
  full.seconds = score.seconds = 1e300;
  banded_full.seconds = banded_score.seconds = 1e300;
  const auto min_into = [](AlignTiming& best, const AlignTiming& t) {
    best.seconds = std::min(best.seconds, t.seconds);
    best.cells = t.cells;
    best.pairs = t.pairs;
  };
  for (int rep = 0; rep < kPairReps; ++rep) {
    min_into(full, time_pairs(set, 1, [&](auto a, auto b) {
               return align::local_align(a, b, scheme).cells;
             }));
    min_into(score, time_pairs(set, 1, [&](auto a, auto b) {
               return align::local_align_score(a, b, scheme).cells;
             }));
    min_into(banded_full, time_pairs(set, 1, [&](auto a, auto b) {
               return align::banded_local_align(a, b, scheme, 0, 32).cells;
             }));
    min_into(banded_score, time_pairs(set, 1, [&](auto a, auto b) {
               return align::banded_local_align_score(a, b, scheme, 0, 32)
                   .cells;
             }));
  }
  std::fprintf(f,
               "    {\"name\": \"local_align_full\", \"ns_per_cell\": %.3f, "
               "\"pairs_per_sec\": %.1f},\n",
               full.ns_per_cell(), full.pairs_per_sec());
  std::fprintf(f,
               "    {\"name\": \"local_align_score_only\", \"ns_per_cell\": "
               "%.3f, \"pairs_per_sec\": %.1f, \"speedup_vs_full\": %.2f},\n",
               score.ns_per_cell(), score.pairs_per_sec(),
               full.seconds / score.seconds);

  // -- score-only vs full-matrix, banded (the CCD inner loop) --------------
  std::fprintf(f,
               "    {\"name\": \"banded_local_align_full\", \"ns_per_cell\": "
               "%.3f, \"pairs_per_sec\": %.1f},\n",
               banded_full.ns_per_cell(), banded_full.pairs_per_sec());
  // speedup_vs_full_matrix is the acceptance headline: the score-only
  // banded fast path against the six-full-matrix path the predicates used
  // to run (same pairs, same rounds, so wall-clock ratios compare).
  std::fprintf(
      f,
      "    {\"name\": \"banded_local_align_score_only\", \"ns_per_cell\": "
      "%.3f, \"pairs_per_sec\": %.1f, \"speedup_vs_banded_full\": %.2f, "
      "\"speedup_vs_full_matrix\": %.2f},\n",
      banded_score.ns_per_cell(), banded_score.pairs_per_sec(),
      banded_full.seconds / banded_score.seconds,
      full.seconds / banded_score.seconds);

  // -- batched SIMD pair engine, per ISA tier ------------------------------
  // One row per ISA the host supports and geometry: the batched engine
  // against the scalar single-pair score engine over the SAME job list,
  // with the same minimum-over-interleaved-repetitions estimator as above.
  // Unbanded jobs are RR's geometry; band 32 around diagonal 0 is B_d's
  // and CCD's (the `batch_align_banded_*` rows). speedup_vs_scalar_single
  // on the widest tier is the tentpole acceptance number.
  {
    // A batch-sized job pool (RR/CCD enqueue hundreds of candidates per
    // flush, not dozens) so the scheduler can form length-uniform chunks.
    const auto batch_set = bench_sequences(256, 200);
    const align::Isa saved = align::current_isa();
    const align::Isa widest = align::detect_best_isa();
    const align::Isa tiers[] = {align::Isa::kScalar, align::Isa::kSse2,
                                align::Isa::kAvx2};
    constexpr int kReps = 9;
    for (const std::int64_t band : {std::int64_t{-1}, std::int64_t{32}}) {
      std::vector<align::PairJob> jobs;
      for (seq::SeqId i = 0; i + 1 < batch_set.size(); ++i) {
        jobs.push_back(
            {batch_set.residues(i), batch_set.residues(i + 1), 0, band});
      }
      const auto single = [&](const align::PairJob& job) {
        return band < 0 ? align::local_align_score(job.a, job.b, scheme)
                        : align::banded_local_align_score(
                              job.a, job.b, scheme, 0,
                              static_cast<std::uint32_t>(band));
      };
      std::vector<align::AlignmentResult> results(jobs.size());
      double single_best = 1e300;
      double tier_best[3] = {1e300, 1e300, 1e300};
      std::uint64_t cells = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        {
          cells = 0;
          const auto t0 = std::chrono::steady_clock::now();
          for (const auto& job : jobs) cells += single(job).cells;
          single_best = std::min(single_best, seconds_since(t0));
        }
        for (int k = 0; k < 3; ++k) {
          if (static_cast<int>(tiers[k]) > static_cast<int>(widest)) continue;
          align::set_isa(tiers[k]);
          const auto t0 = std::chrono::steady_clock::now();
          align::align_score_batch(jobs.data(), jobs.size(), scheme,
                                   results.data());
          tier_best[k] = std::min(tier_best[k], seconds_since(t0));
          benchmark::DoNotOptimize(results.data());
        }
      }
      align::set_isa(saved);
      const double single_ns = single_best * 1e9 / static_cast<double>(cells);
      for (int k = 0; k < 3; ++k) {
        if (static_cast<int>(tiers[k]) > static_cast<int>(widest)) continue;
        const double ns = tier_best[k] * 1e9 / static_cast<double>(cells);
        std::fprintf(f,
                     "    {\"name\": \"batch_align_%s%s\", \"ns_per_cell\": "
                     "%.3f, \"pairs_per_sec\": %.1f, "
                     "\"single_pair_ns_per_cell\": %.3f, "
                     "\"speedup_vs_scalar_single\": %.2f},\n",
                     band < 0 ? "" : "banded_", align::isa_name(tiers[k]), ns,
                     static_cast<double>(jobs.size()) / tier_best[k],
                     single_ns, single_ns / ns);
      }
    }
  }

  // -- serial vs pooled batched CCD verdicts -------------------------------
  const auto ccd_set = bench_sequences(220, 120);
  std::vector<seq::SeqId> ids(ccd_set.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const auto pairs = static_cast<double>(ids.size() * (ids.size() - 1) / 2);

  const auto t_serial0 = std::chrono::steady_clock::now();
  auto serial_cc = pace::detect_components_bruteforce(ccd_set, ids);
  const double serial_s = seconds_since(t_serial0);
  benchmark::DoNotOptimize(serial_cc.data());
  std::fprintf(f,
               "    {\"name\": \"ccd_bruteforce_serial\", \"threads\": 1, "
               "\"seconds\": %.3f, \"pairs_per_sec\": %.1f},\n",
               serial_s, pairs / serial_s);

  std::vector<unsigned> pool_sizes = {2u};
  if (hw > 2) pool_sizes.push_back(hw);
  for (std::size_t k = 0; k < pool_sizes.size(); ++k) {
    const unsigned threads = pool_sizes[k];
    exec::Pool pool(threads);
    const auto t0 = std::chrono::steady_clock::now();
    auto cc = pace::detect_components_bruteforce(ccd_set, ids, {}, nullptr,
                                                 &pool);
    const double s = seconds_since(t0);
    benchmark::DoNotOptimize(cc.data());
    std::fprintf(f,
                 "    {\"name\": \"ccd_bruteforce_pooled\", \"threads\": %u, "
                 "\"seconds\": %.3f, \"pairs_per_sec\": %.1f, "
                 "\"speedup_vs_serial\": %.2f}%s\n",
                 threads, s, pairs / s, serial_s / s,
                 k + 1 == pool_sizes.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (std::FILE* f = std::fopen("BENCH_kernels.json", "w")) {
    write_json(f);
    std::fclose(f);
    std::fprintf(stderr, "wrote BENCH_kernels.json\n");
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
