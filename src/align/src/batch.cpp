#include "pclust/align/batch.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include "band_layout.hpp"
#include "batch_detail.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::align {

namespace {

using detail::BandLayout;
using detail::LaneJob;
using detail::LaneOut;

/// The scalar reference for one job — also the fallback for every pair the
/// 16-bit lanes cannot represent exactly.
AlignmentResult scalar_score(const PairJob& job, const ScoringScheme& scheme) {
  if (job.band < 0) return local_align_score(job.a, job.b, scheme);
  return banded_local_align_score(job.a, job.b, scheme, job.diagonal,
                                  static_cast<std::uint32_t>(job.band));
}

/// Cell count exactly as the scalar engine charges it: the sum of
/// row_limits widths over non-empty rows.
std::uint64_t cells_for(const PairJob& job) {
  const std::size_t m = job.a.size();
  const std::size_t n = job.b.size();
  const std::int64_t band =
      job.band < 0 ? static_cast<std::int64_t>(m + n) : job.band;
  const std::int64_t diagonal = job.band < 0 ? 0 : job.diagonal;
  const BandLayout lay(m, n, diagonal, band);
  std::uint64_t cells = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    std::size_t j_lo, j_hi;
    lay.row_limits(i, j_lo, j_hi);
    if (j_lo <= j_hi) cells += j_hi - j_lo + 1;
  }
  return cells;
}

/// One chunk of lane-compatible jobs, already capped at the lane width.
struct Chunk {
  const std::size_t* idx;
  std::size_t count;
  bool banded;        // diagonal-window storage, uniform band
  std::int64_t band;  // the uniform half-width when banded
};

/// Scores one chunk in SIMD lanes; returns how many of its lanes overflowed
/// and were recomputed by the scalar engine.
std::size_t run_chunk(const Chunk& chunk, const PairJob* jobs,
                      const ScoringScheme& scheme, Isa isa,
                      AlignmentResult* out) {
  LaneJob lanes[16];
  LaneOut louts[16];
  for (std::size_t l = 0; l < chunk.count; ++l) {
    const PairJob& job = jobs[chunk.idx[l]];
    LaneJob& lane = lanes[l];
    lane.a = job.a.data();
    lane.b = job.b.data();
    lane.m = static_cast<std::int32_t>(job.a.size());
    lane.n = static_cast<std::int32_t>(job.b.size());
    const std::int64_t mn = lane.m + lane.n;
    const std::int64_t band = job.band < 0 ? mn : std::min(job.band, mn);
    lane.band_eff = static_cast<std::int32_t>(band);
    lane.diagonal =
        band < mn ? static_cast<std::int32_t>(job.diagonal) : 0;
  }
  switch (isa) {
    case Isa::kAvx2:
      detail::avx2::run_batch(lanes, chunk.count, chunk.banded, chunk.band,
                              scheme, louts);
      break;
    case Isa::kSse2:
      detail::sse2::run_batch(lanes, chunk.count, chunk.banded, chunk.band,
                              scheme, louts);
      break;
    case Isa::kScalar:
      std::abort();  // scalar calls never reach chunk dispatch
  }
  util::metrics().counter("align.batches").add(1);
  util::metrics().histogram("align.batch_fill").add(chunk.count);

  std::size_t overflowed = 0;
  for (std::size_t l = 0; l < chunk.count; ++l) {
    const PairJob& job = jobs[chunk.idx[l]];
    const LaneOut& lane = louts[l];
    AlignmentResult& r = out[chunk.idx[l]];
    if (lane.overflow) {
      r = scalar_score(job, scheme);
      ++overflowed;
      continue;
    }
    r = AlignmentResult{};
    r.cells = cells_for(job);
    if (lane.score <= 0) continue;  // no positive local alignment
    r.score = lane.score;
    r.a_end = static_cast<std::uint32_t>(lane.best_i);
    r.b_end = static_cast<std::uint32_t>(lane.best_j);
    r.a_begin = static_cast<std::uint32_t>(lane.a_begin);
    r.b_begin = static_cast<std::uint32_t>(lane.b_begin);
    const std::uint32_t rows_used = r.a_end - r.a_begin;
    const std::uint32_t cols_used = r.b_end - r.b_begin;
    const auto subs = static_cast<std::uint32_t>(lane.subs);
    r.columns = rows_used + cols_used - subs;
    r.matches = static_cast<std::uint32_t>(lane.matches);
    r.positives = static_cast<std::uint32_t>(lane.positives);
    r.gap_columns = r.columns - subs;
  }
  return overflowed;
}

/// Where each pair of one call was scored: read from a SIMD lane, or by the
/// scalar engine (unrepresentable, overflowed, or the scalar ISA).
void count_routes(std::size_t simd, std::size_t scalar, std::size_t overflow) {
  util::metrics().counter("align.simd_pairs").add(simd);
  util::metrics().counter("align.scalar_pairs").add(scalar);
  util::metrics().counter("align.overflow_pairs").add(overflow);
}

bool lane_representable(const PairJob& job) {
  const auto m = static_cast<std::int64_t>(job.a.size());
  const auto n = static_cast<std::int64_t>(job.b.size());
  if (m > detail::kBatchMaxLen || n > detail::kBatchMaxLen) return false;
  // The diagonal only enters row clamping, which only happens when the
  // band is narrower than m + n.
  if (job.band >= 0 && job.band < m + n &&
      (job.diagonal > detail::kBatchMaxDiag ||
       job.diagonal < -detail::kBatchMaxDiag)) {
    return false;
  }
  return true;
}

/// Sort a banded run's indices longest-first so lanes of one chunk sweep
/// similar row counts (short lanes idle only at the tail; the slot span is
/// the shared band width, so only the row count matters).
void sort_by_size(std::vector<std::size_t>& idx, const PairJob* jobs) {
  std::sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
    const std::size_t mx = jobs[x].a.size(), my = jobs[y].a.size();
    if (mx != my) return mx > my;
    const std::size_t nx = jobs[x].b.size(), ny = jobs[y].b.size();
    if (nx != ny) return nx > ny;
    return x < y;
  });
}

/// Group full-width jobs so both dimensions are similar within a chunk: a
/// chunk's cost is its row maximum times its span maximum, and m and n of
/// one pair are uncorrelated, so a single-key sort still mixes long and
/// short spans into one chunk. Two levels — sort by m, then re-sort each
/// block of a few chunks by n — keeps rows uniform at the block scale and
/// spans uniform at the chunk scale. Scheduling only: results are
/// per-pair and land at their original indices regardless of order.
void sort_by_extent(std::vector<std::size_t>& idx, const PairJob* jobs) {
  constexpr std::size_t kBlock = 64;
  std::sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
    const std::size_t mx = jobs[x].a.size(), my = jobs[y].a.size();
    if (mx != my) return mx > my;
    return x < y;
  });
  for (std::size_t k = 0; k < idx.size(); k += kBlock) {
    const auto end = idx.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(idx.size(), k + kBlock));
    std::sort(idx.begin() + static_cast<std::ptrdiff_t>(k), end,
              [&](std::size_t x, std::size_t y) {
                const std::size_t nx = jobs[x].b.size(),
                                  ny = jobs[y].b.size();
                if (nx != ny) return nx > ny;
                return x < y;
              });
  }
}

}  // namespace

void align_score_batch(const PairJob* jobs, std::size_t count,
                       const ScoringScheme& scheme, AlignmentResult* out) {
  const Isa isa = current_isa();
  const std::size_t lanes = isa_lanes(isa);
  // The lanes' traceback codes need every gap run to end at an M cell of
  // positive score, which a positive gap-open cost guarantees.
  const bool scheme_ok = scheme.gap_open >= 0 && scheme.gap_extend >= 0 &&
                         scheme.gap_open + scheme.gap_extend > 0;
  if (isa == Isa::kScalar || !scheme_ok) {
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = scalar_score(jobs[k], scheme);
    }
    count_routes(0, count, 0);
    return;
  }

  // Group by kernel geometry: banded-window chunks keyed by the (shared)
  // half-width, full-width chunks for everything else; pairs the 16-bit
  // lanes cannot represent go straight to the scalar engine.
  std::vector<std::size_t> full;
  std::vector<std::pair<std::int64_t, std::size_t>> banded;  // (band, idx)
  std::size_t unrepresentable = 0, overflowed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const PairJob& job = jobs[k];
    if (!lane_representable(job)) {
      out[k] = scalar_score(job, scheme);
      ++unrepresentable;
      continue;
    }
    if (job.band >= 0) {
      const BandLayout lay(job.a.size(), job.b.size(), job.diagonal,
                           job.band);
      if (lay.banded) {
        banded.emplace_back(job.band, k);
        continue;
      }
    }
    full.push_back(k);
  }

  sort_by_extent(full, jobs);
  for (std::size_t k = 0; k < full.size(); k += lanes) {
    Chunk chunk{full.data() + k, std::min(lanes, full.size() - k), false, 0};
    overflowed += run_chunk(chunk, jobs, scheme, isa, out);
  }

  // Stable partition of the banded list into per-band runs, each run
  // chunked lane-width at a time.
  std::stable_sort(
      banded.begin(), banded.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::size_t> run;
  for (std::size_t k = 0; k < banded.size();) {
    const std::int64_t band = banded[k].first;
    run.clear();
    while (k < banded.size() && banded[k].first == band) {
      run.push_back(banded[k].second);
      ++k;
    }
    sort_by_size(run, jobs);
    for (std::size_t r = 0; r < run.size(); r += lanes) {
      Chunk chunk{run.data() + r, std::min(lanes, run.size() - r), true,
                  band};
      overflowed += run_chunk(chunk, jobs, scheme, isa, out);
    }
  }
  const std::size_t scalar = unrepresentable + overflowed;
  count_routes(count - scalar, scalar, overflowed);
}

void align_score_batch(const PairJob* jobs, std::size_t count,
                       const ScoringScheme& scheme, AlignmentResult* out,
                       exec::Pool* pool) {
  // One lane scores the whole list in one call, the widest batch for lane
  // packing. Several lanes cut a call of fewer than lanes x kPoolGrain jobs
  // into one slice per lane (but never below one SIMD chunk), so a
  // 256-pair flush reaches every lane.
  exec::Pool& lanes = exec::or_serial(pool);
  std::size_t grain = count;
  if (lanes.size() > 1) {
    const std::size_t per_lane = (count + lanes.size() - 1) / lanes.size();
    grain = std::min(kPoolGrain, std::max(isa_lanes(current_isa()), per_lane));
  }
  lanes.for_range(count, grain, [&](std::size_t lo, std::size_t hi) {
    align_score_batch(jobs + lo, hi - lo, scheme, out + lo);
  });
}

}  // namespace pclust::align
