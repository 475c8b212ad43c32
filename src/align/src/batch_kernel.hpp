// Lane-parallel local alignment: the DP body shared by the SSE2 and AVX2
// translation units, templated over a Traits type that wraps the ISA's
// 16-bit integer operations. Include only from batch_*.cpp.
//
// Two passes per chunk. A lockstep sweep, one independent pair per lane,
// keeps only the three score planes (M, X, Y) and records a 4-bit
// traceback code per lane-cell: the M predecessor {M, X, Y, start} in two
// bits, plus "X extends X" and "Y extends Y". A scalar traceback per lane
// then walks from the best cell to the first "start", counting
// substitution columns, matches and positives on M steps; where it stops
// gives the begin coordinates.
//
// Banded storage maps slot s of row i to column
// j = s + i - band - 1 - diagonal[lane] (the window slides one column per
// row, so the diagonal predecessor of slot s is slot s of the previous row
// and the vertical predecessor is slot s + 1); full storage maps s to
// column j = s (predecessors s - 1 and s). Row validity masks reproduce
// BandLayout::row_limits per lane, and every slot outside a lane's valid
// range stores kNegInf16 — the scalar engine's "everything outside the
// computed band is default" invariant. Scores are slot-major
// ([slot][state] x lanes) and single buffered: each slot's previous-row
// states are loaded once, at up = s + kShift, and carried in registers to
// the next slot (where they are the diagonal predecessors), so row i
// overwrites row i - 1 in place. Codes go to a [row][slot] table of two
// movemask(packs(a, b)) words per slot (word 0: M predecessor, word 1: gap
// extensions), (rows + 1) x (S + 2) x 2 words per chunk — the only
// scratch that grows with rows x slots. It needs no zero-fill: the
// traceback reads only codes the sweep wrote.
//
// Every result field is bit-identical to the scalar engines: the traceback
// is align_impl's local traceback (pairwise.cpp), and the codes are the
// compares the sweep makes anyway.
//  - Tie-breaks are the scalar ones: X/Y gap selects prefer M (strict
//    compares to extend), M predecessors prefer M, then X, then Y, and the
//    best cell is the first maximum in (i asc, j asc) order.
//  - align_impl stops at the first non-positive M cell on the path, so an
//    M predecessor is "start" when it is negative (the fresh-start clamp)
//    or when M wins with score exactly 0. A gap predecessor of score 0 is
//    no stop: its gap run ends at an M cell of score >= open > 0 (the
//    driver sends schemes with open == 0 to the scalar engine).
//  - Every cell on a path from a positive best cell scores >= 0 and lies
//    in the lane's band, so its score and code are exact and were written
//    by the sweep. Local-mode border cells (M = 0 on row 0 / column 0) are
//    not materialized: a missing border reads kNegInf16 and codes "start",
//    as M = 0 would. Border-fed gap values can differ, but only below
//    zero, where they decide no compare a path depends on.
//  - Saturating arithmetic clamps "negative infinity" instead of wrapping;
//    real scores are exact unless one exceeds kOverflowGuard, which sets
//    the lane's sticky overflow flag: the driver recomputes that lane in
//    scalar code, and its traceback is skipped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "batch_detail.hpp"

namespace pclust::align::detail {

enum State : int { kM = 0, kX = 1, kY = 2 };

/// Scratch buffer aligned to a cache line so every lane vector load/store
/// stays within one line (std::vector's default 16-byte alignment would
/// split half of the 32-byte AVX2 accesses across two lines).
class AlignedScratch {
 public:
  void resize(std::size_t n, std::int16_t fill) {
    raw_.assign(n + kPad, fill);
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.data());
    const std::uintptr_t aligned = (addr + 63u) & ~std::uintptr_t{63};
    p_ = reinterpret_cast<std::int16_t*>(aligned);
  }
  [[nodiscard]] std::int16_t* data() { return p_; }

 private:
  static constexpr std::size_t kPad = 32;  // 64 bytes of int16 headroom
  std::vector<std::int16_t> raw_;
  std::int16_t* p_ = nullptr;
};

/// Bit of lane @p lane of operand @p k (0 = a, 1 = b) in a
/// movemask(packs(a, b)) word: packs interleaves its operands per 128-bit
/// half, eight 16-bit lanes each.
constexpr int code_bit(int lane, int k) {
  return (lane / 8) * 16 + k * 8 + lane % 8;
}

/// Per-lane traceback over the sweep's code table: align_impl's local
/// traceback, starting in M at the lane's best cell (i, j).
template <bool Banded, typename Word>
void trace_lane(const Word* codes, std::int32_t SA, std::int64_t band,
                int lane, const LaneJob& job, const ScoringScheme& scheme,
                std::int32_t i, std::int32_t j, LaneOut& o) {
  const std::int32_t off0 =
      Banded ? static_cast<std::int32_t>(band) + 1 + job.diagonal : 0;
  const auto bit = [&](std::int32_t ci, std::int32_t cj, int word, int k) {
    const std::int32_t s = Banded ? cj - ci + off0 : cj;
    const Word w = codes[(static_cast<std::size_t>(ci) * SA + s) * 2 + word];
    return ((w >> code_bit(lane, k)) & 1u) != 0;
  };
  std::int32_t subs = 0, matches = 0, positives = 0;
  State state = kM;
  for (;;) {
    if (state == kM) {
      const bool gap = bit(i, j, 0, 0);
      const bool y_or_start = bit(i, j, 0, 1);
      const auto ra = static_cast<std::uint8_t>(job.a[i - 1]);
      const auto rb = static_cast<std::uint8_t>(job.b[j - 1]);
      ++subs;
      matches += ra == rb ? 1 : 0;
      positives += scheme.substitution[ra][rb] > 0 ? 1 : 0;
      --i;
      --j;
      if (!gap && y_or_start) break;  // "start": the region begins here
      state = !gap ? kM : y_or_start ? kY : kX;
    } else if (state == kX) {
      state = bit(i, j, 1, 0) ? kX : kM;
      --i;
    } else {
      state = bit(i, j, 1, 1) ? kY : kM;
      --j;
    }
  }
  o.a_begin = i;
  o.b_begin = j;
  o.subs = subs;
  o.matches = matches;
  o.positives = positives;
}

template <typename T, bool Banded>
void batch_kernel(const LaneJob* jobs, std::size_t count, std::int64_t band,
                  const ScoringScheme& scheme, LaneOut* out) {
  using V = typename T::V;
  using Word = typename T::Word;
  constexpr int L = T::kLanes;

  std::int32_t max_m = 0, max_n = 0;
  for (std::size_t l = 0; l < count; ++l) {
    max_m = std::max(max_m, jobs[l].m);
    max_n = std::max(max_n, jobs[l].n);
  }
  // Computed slots are [1, S]; slots 0 and S + 1 are permanent kNegInf16
  // margins absorbing the diagonal/vertical predecessor reads at the ends.
  const std::int32_t S =
      Banded ? static_cast<std::int32_t>(2 * band + 1) : max_n;
  const std::int32_t SA = S + 2;
  constexpr int kShift = Banded ? 1 : 0;

  // Slot-major single-buffer score storage: slot s holds the M, X and Y
  // lane vectors contiguously.
  AlignedScratch planes;
  planes.resize(static_cast<std::size_t>(SA) * 3 * L, kNegInf16);
  const auto at = [&planes](std::int32_t s, int state) -> std::int16_t* {
    return planes.data() + (static_cast<std::size_t>(s) * 3 + state) * L;
  };
  const auto default_scores = [&](std::int32_t s_from, std::int32_t s_to) {
    if (s_from < s_to) {
      std::fill(at(s_from, kM), at(s_to, kM), kNegInf16);
    }
  };
  // Traceback codes, two words per (row, slot); default-initialized, so
  // pages the sweep never touches are never faulted in.
  const std::unique_ptr<Word[]> codes(
      new Word[static_cast<std::size_t>(max_m + 1) * SA * 2]);

  // Per-lane geometry. Padding lanes replicate the first job rather than
  // going in dead: a dead lane would disable the all-valid interior span
  // for every row of the chunk, while a duplicate costs nothing (its slots
  // are swept either way) and its results are simply never extracted.
  std::int16_t d16[L], n16[L], m16[L], band16[L];
  const char* as[L];
  const char* bs[L];
  for (int l = 0; l < L; ++l) {
    const bool live = static_cast<std::size_t>(l) < count;
    const LaneJob j = live ? jobs[static_cast<std::size_t>(l)] : jobs[0];
    d16[l] = static_cast<std::int16_t>(j.diagonal);
    n16[l] = static_cast<std::int16_t>(j.n);
    m16[l] = static_cast<std::int16_t>(j.m);
    band16[l] = static_cast<std::int16_t>(j.band_eff);
    as[l] = j.a;
    bs[l] = j.b;
  }
  const V d_v = T::loadu(d16);

  // Substitution scores per row: ISAs with a hardware gather pull them
  // in-register from a widened copy of the substitution matrix (index =
  // row_base[lane] + b_residue[slot][lane], always in bounds); the rest
  // fill a per-row profile array.
  //
  // The gather reads b residues in slot-major SoA form, built once. Full
  // storage: slot s holds b[s - 1]. Banded storage: row i's slot s reads
  // index s + i, so one table over g = s + i serves every row via a
  // shifted pointer.
  AlignedScratch vb_table;
  AlignedScratch rp;
  std::vector<std::int32_t> sub32;
  if constexpr (T::kHasGather) {
    const std::int32_t G = Banded ? (S + max_m + 2) : (S + 2);
    vb_table.resize(static_cast<std::size_t>(G) * L, 0);
    for (int l = 0; l < L; ++l) {
      if (!bs[l]) continue;
      for (std::int32_t g = 0; g < G; ++g) {
        const std::int64_t j0 =
            Banded ? (static_cast<std::int64_t>(g) - band - 2 - d16[l])
                   : (g - 1);
        if (j0 >= 0 && j0 < n16[l]) {
          vb_table.data()[static_cast<std::size_t>(g) * L + l] =
              static_cast<std::int16_t>(
                  static_cast<std::uint8_t>(bs[l][j0]));
        }
      }
    }
    sub32.resize(static_cast<std::size_t>(seq::kAlphabetSize) *
                 seq::kAlphabetSize);
    for (int r = 0; r < seq::kAlphabetSize; ++r) {
      for (int c = 0; c < seq::kAlphabetSize; ++c) {
        sub32[static_cast<std::size_t>(r) * seq::kAlphabetSize + c] =
            scheme.substitution[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(c)];
      }
    }
  } else {
    rp.resize(static_cast<std::size_t>(SA) * L, 0);
  }
  std::int16_t jlo16[L], jhi16[L], base16[L];

  const V zero = T::zero();
  const V one = T::set1(1);
  const V neginf_v = T::set1(kNegInf16);
  const V guard_v = T::set1(kOverflowGuard);
  const V open_v = T::set1(static_cast<std::int16_t>(
      static_cast<std::int32_t>(scheme.gap_open) + scheme.gap_extend));
  const V ext_v = T::set1(static_cast<std::int16_t>(scheme.gap_extend));

  // Best-cell accumulator, updated strictly-greater in sweep order so it
  // holds the first maximum in (i asc, j asc) order per lane.
  struct Best {
    V s, i, j;
  };
  Best best0{zero, zero, zero};
  V osat = zero;

  // Row geometry in vector form (BandLayout::row_limits per lane, with
  // band_eff = min(band, m + n) so one formula covers the unclamped case).
  // [s_lo, s_hi] is the union of the lanes' valid slot spans; [a_lo, a_hi]
  // is their intersection (empty if any lane is dead), where every lane is
  // valid and the sweep can skip masking entirely.
  struct Geom {
    V base_v, jlom1, jhip1, i_v;
    std::int32_t s_lo, s_hi, a_lo, a_hi;
    const std::int16_t* vb_row;
    Word* code_row;
  };
  const auto compute_geom = [&](std::int32_t i, Geom& g) {
    g.s_lo = S + 1;
    g.s_hi = 0;
    g.a_lo = 1;
    g.a_hi = S;
    for (int l = 0; l < L; ++l) {
      std::int32_t jlo = 1, jhi = -1;
      if (i <= m16[l]) {
        const std::int32_t center = i - d16[l];
        jlo = std::max<std::int32_t>(1, center - band16[l]);
        jhi = std::min<std::int32_t>(n16[l], center + band16[l]);
        if (jlo > jhi) jhi = jlo - 1;
      }
      jlo16[l] = static_cast<std::int16_t>(jlo);
      jhi16[l] = static_cast<std::int16_t>(jhi);
      if (jlo <= jhi) {
        const std::int32_t off =
            Banded ? (i - static_cast<std::int32_t>(band) - 1 - d16[l]) : 0;
        g.s_lo = std::min(g.s_lo, jlo - off);
        g.s_hi = std::max(g.s_hi, jhi - off);
        g.a_lo = std::max(g.a_lo, jlo - off);
        g.a_hi = std::min(g.a_hi, jhi - off);
      } else {
        g.a_hi = 0;  // a dead lane leaves no all-valid span
      }
      base16[l] = static_cast<std::int16_t>(
          i <= m16[l]
              ? static_cast<std::uint8_t>(as[l][i - 1]) * seq::kAlphabetSize
              : 0);
    }
    g.base_v = T::loadu(base16);
    g.jlom1 = T::sub(T::loadu(jlo16), one);
    g.jhip1 = T::add(T::loadu(jhi16), one);
    g.i_v = T::set1(static_cast<std::int16_t>(i));
    g.vb_row =
        vb_table.data() + (Banded ? static_cast<std::size_t>(i) * L : 0);
    g.code_row = codes.get() + static_cast<std::size_t>(i) * SA * 2;
  };

  // Column vector of slot s in row i (shared by row i + 1 at slot
  // s - kShift: the pair skew lines both rows up on the same column).
  const auto col_of = [&](std::int32_t i, std::int32_t s) -> V {
    if constexpr (Banded) {
      return T::sub(
          T::set1(static_cast<std::int16_t>(
              s + i - static_cast<std::int32_t>(band) - 1)),
          d_v);
    } else {
      (void)i;
      return T::set1(static_cast<std::int16_t>(s));
    }
  };

  Geom g0;

  // One slot of row g0 for every lane: loads the previous row's states at
  // up = s + kShift, writes the cell's two code words, and stores this
  // row's states at s (safe in the single buffer: the up read of a slot
  // always precedes its overwrite), defaulted outside the valid mask.
  // dm/dx/dy carry the diagonal states (updated to the up states for the
  // next slot), yrun/mleft the Y chain and the M to the left. AllValid
  // instantiations run inside the lanes' intersection span, where the
  // mask is all-ones and every blend against it folds away.
  const auto cell_step = [&]<bool AllValid>(std::int32_t s, V jv, V& dm,
                                            V& dx, V& dy, V& yrun, V& mleft,
                                            Best& best, V& osat_acc) {
    const V valid = AllValid ? zero
                             : T::and_(T::cmpgt(jv, g0.jlom1),
                                       T::cmpgt(g0.jhip1, jv));
    const std::int16_t* up = at(s + kShift, kM);
    const V um = T::loadu(up);
    const V ux = T::loadu(up + L);
    const V uy = T::loadu(up + 2 * L);
    const auto slot = static_cast<std::size_t>(s) * L;
    V rp_v;
    if constexpr (T::kHasGather) {
      // blend(valid, ., neginf) reproduces the profile array bit for bit:
      // the array holds the substitution score on each lane's active span
      // and kNegInf16 everywhere else in the union range.
      const V vb_v = T::loadu(g0.vb_row + slot);
      const V gathered = T::gather16(sub32.data(), T::add(g0.base_v, vb_v));
      rp_v = AllValid ? gathered : T::blend(valid, gathered, neginf_v);
    } else {
      rp_v = T::loadu(rp.data() + slot);
    }

    // X: gap in b; ties prefer M, exactly as the scalar select.
    const V x_vm = T::subs(um, open_v);
    const V x_vx = T::subs(ux, ext_v);
    const V x_ext = T::cmpgt(x_vx, x_vm);  // strict: ties keep M
    const V x_max = T::max(x_vm, x_vx);
    T::storeu(at(s, kX), AllValid ? x_max : T::blend(valid, x_max, neginf_v));

    // M predecessor: best of {M, X, Y} at the diagonal, ties in that
    // order (strict compares to switch). "start" when a gap state wins
    // below 0 or M wins at or below 0 (align_impl's stop at the first
    // non-positive M cell); then the fresh-start clamp.
    const V x_beats = T::cmpgt(dx, dm);
    V ps = T::max(dm, dx);
    const V y_beats = T::cmpgt(dy, ps);
    ps = T::max(ps, dy);
    dm = um;
    dx = ux;
    dy = uy;
    const V gap = T::or_(x_beats, y_beats);
    const V start = T::cmpgt(T::andnot(gap, one), ps);
    ps = T::max(ps, zero);

    const V value = T::adds(ps, rp_v);
    osat_acc = T::or_(osat_acc, T::cmpgt(value, guard_v));
    const V m = AllValid ? value : T::blend(valid, value, neginf_v);
    T::storeu(at(s, kM), m);

    // Best tracking: strictly-greater in sweep order = first maximum in
    // (i asc, j asc) order per lane within this stream. Invalid slots
    // cannot win: the defaulted profile keeps their values below zero.
    const V bm = T::cmpgt(value, best.s);
    if (T::any(bm)) {
      best.s = T::max(best.s, value);
      best.i = T::blend(bm, g0.i_v, best.i);
      best.j = T::blend(bm, jv, best.j);
    }

    // Y: gap in a; the serial chain carried in registers, reading the M
    // of the previous slot of this row. Ties prefer M.
    const V y_vm = T::subs(mleft, open_v);
    const V y_vy = T::subs(yrun, ext_v);
    const V y_ext = T::cmpgt(y_vy, y_vm);
    const V y_max = T::max(y_vm, y_vy);
    yrun = AllValid ? y_max : T::blend(valid, y_max, neginf_v);
    T::storeu(at(s, kY), yrun);
    mleft = m;

    Word* code = g0.code_row + static_cast<std::size_t>(s) * 2;
    code[0] = T::pack_masks(T::andnot(start, gap), T::or_(y_beats, start));
    code[1] = T::pack_masks(x_ext, y_ext);
  };

  // Single-row sweep over the union span of the lanes' valid slots.
  const auto sweep_one = [&](std::int32_t i) {
    compute_geom(i, g0);
    const std::int32_t s_lo = g0.s_lo, s_hi = g0.s_hi;

    // Head slots this row leaves untouched become defaults up front (no
    // predecessor read looks below s_lo - 1 + kShift); the tail margin is
    // deferred — in banded mode the pass still reads slot s_hi + 1 of the
    // previous row.
    default_scores(1, std::min(s_lo, S + 1));
    if (s_lo > s_hi) return;

    if constexpr (!T::kHasGather) {
      std::fill(rp.data() + static_cast<std::ptrdiff_t>(s_lo) * L,
                rp.data() + static_cast<std::ptrdiff_t>(s_hi + 1) * L,
                kNegInf16);
      for (int l = 0; l < L; ++l) {
        if (jlo16[l] > jhi16[l]) continue;
        const auto& subrow =
            scheme.substitution[static_cast<std::uint8_t>(as[l][i - 1])];
        const std::int32_t off =
            Banded ? (i - static_cast<std::int32_t>(band) - 1 - d16[l]) : 0;
        for (std::int32_t j = jlo16[l]; j <= jhi16[l]; ++j) {
          rp.data()[static_cast<std::size_t>(j - off) * L + l] =
              subrow[static_cast<std::uint8_t>(bs[l][j - 1])];
        }
      }
    }

    // Chain seeds: the slot before the span is defaulted (head clear or
    // permanent margin), so constant seeds are exact; the diagonal seed
    // in banded mode reads the previous row's genuine slot s_lo.
    V yrun = neginf_v, mleft = neginf_v;
    V dm = neginf_v, dx = neginf_v, dy = neginf_v;
    if constexpr (Banded) {
      dm = T::loadu(at(s_lo, kM));
      dx = T::loadu(at(s_lo, kX));
      dy = T::loadu(at(s_lo, kY));
    }

    // Local copies of the accumulators for the hot loop; merged back after
    // so the captured-by-reference originals never pin a stack slot inside
    // the sweep.
    Best best = best0;
    V ov = osat;
    // The sweep runs as up to three consecutive segments: a masked head,
    // the all-valid interior [a_lo, a_hi] (every lane inside its span, so
    // the mask folds away at compile time), and a masked tail. Masked
    // segments compute per-lane validity from both bounds — both matter
    // even in full storage: a narrow-band job whose window is wider than
    // the row stores full-width but still clamps its rows per
    // BandLayout::row_limits. Each segment keeps its own induction
    // variables so the chain state never round-trips through memory.
#define PCLUST_BATCH_SEGMENT(ALLVALID, LO, HI)                               \
  {                                                                          \
    V jv = col_of(i, (LO));                                                  \
    for (std::int32_t s = (LO); s <= (HI); ++s, jv = T::add(jv, one)) {      \
      cell_step.template operator()<(ALLVALID)>(s, jv, dm, dx, dy, yrun,     \
                                                mleft, best, ov);            \
    }                                                                        \
  }
    const std::int32_t a_lo = std::max(g0.a_lo, s_lo);
    const std::int32_t a_hi = std::min(g0.a_hi, s_hi);
    if (a_lo <= a_hi) {
      PCLUST_BATCH_SEGMENT(false, s_lo, a_lo - 1)
      PCLUST_BATCH_SEGMENT(true, a_lo, a_hi)
      PCLUST_BATCH_SEGMENT(false, a_hi + 1, s_hi)
    } else {
      PCLUST_BATCH_SEGMENT(false, s_lo, s_hi)
    }
#undef PCLUST_BATCH_SEGMENT
    best0 = best;
    osat = ov;
    default_scores(s_hi + 1, S + 1);
  };

  for (std::int32_t i = 1; i <= max_m; ++i) sweep_one(i);

  std::int16_t sc[L], bi[L], bj[L], ov[L];
  T::storeu(sc, best0.s);
  T::storeu(bi, best0.i);
  T::storeu(bj, best0.j);
  T::storeu(ov, osat);
  for (std::size_t l = 0; l < count; ++l) {
    LaneOut& o = out[l];
    o.score = sc[l];
    o.best_i = bi[l];
    o.best_j = bj[l];
    o.overflow = ov[l] != 0;
    if (o.overflow || o.score <= 0) continue;
    trace_lane<Banded>(codes.get(), SA, band, static_cast<int>(l), jobs[l],
                       scheme, o.best_i, o.best_j, o);
  }
}

template <typename T>
void run_batch_impl(const LaneJob* jobs, std::size_t count, bool banded,
                    std::int64_t band, const ScoringScheme& scheme,
                    LaneOut* out) {
  if (banded) {
    batch_kernel<T, true>(jobs, count, band, scheme, out);
  } else {
    batch_kernel<T, false>(jobs, count, band, scheme, out);
  }
}

}  // namespace pclust::align::detail
