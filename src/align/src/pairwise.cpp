#include "pclust/align/pairwise.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "band_layout.hpp"

namespace pclust::align {

namespace {

using detail::BandLayout;
using detail::kNegInf;

// Traceback codes. For the M (substitution) state the predecessor is the
// best of {M, X, Y} at (i-1, j-1), or a fresh local start.
enum Tb : std::uint8_t { kFromM = 0, kFromX = 1, kFromY = 2, kStart = 3 };

// DP variants sharing one engine.
enum class Mode {
  kGlobal,  // end-to-end in both sequences
  kLocal,   // best positive region (Smith-Waterman)
};

/// Shared DP engine. When `global` is true, borders are initialized with
/// affine gap penalties and the answer is the best end state at (m, n);
/// otherwise the recurrence is clamped at zero (Smith–Waterman) and the
/// answer is the best M cell anywhere. The band restricts computation to
/// diagonals |i - j - diagonal| <= band (band >= m + n disables it); only
/// the banded window of each row is allocated.
AlignmentResult align_impl(std::string_view a, std::string_view b,
                           const ScoringScheme& scheme, Mode mode,
                           std::int64_t diagonal, std::int64_t band,
                           std::vector<EditOp>* path = nullptr) {
  if (path) path->clear();
  const bool global = mode == Mode::kGlobal;
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::int32_t open =
      static_cast<std::int32_t>(scheme.gap_open) + scheme.gap_extend;
  const std::int32_t extend = scheme.gap_extend;

  const BandLayout lay(m, n, diagonal, band);
  const std::size_t W = lay.W;

  std::vector<std::int32_t> M((m + 1) * W, kNegInf);
  std::vector<std::int32_t> X((m + 1) * W, kNegInf);
  std::vector<std::int32_t> Y((m + 1) * W, kNegInf);
  std::vector<std::uint8_t> tbM((m + 1) * W, kStart);
  std::vector<std::uint8_t> tbX((m + 1) * W, kFromM);
  std::vector<std::uint8_t> tbY((m + 1) * W, kFromM);

  if (lay.in_window(0, 0)) M[lay.idx(0, 0)] = 0;
  if (global) {
    for (std::size_t i = 1; i <= m; ++i) {
      if (!lay.in_window(i, 0)) continue;
      X[lay.idx(i, 0)] = -open - static_cast<std::int32_t>(i - 1) * extend;
      tbX[lay.idx(i, 0)] = (i == 1) ? kFromM : kFromX;
    }
    for (std::size_t j = 1; j <= n && lay.in_window(0, j); ++j) {
      Y[lay.idx(0, j)] = -open - static_cast<std::int32_t>(j - 1) * extend;
      tbY[lay.idx(0, j)] = (j == 1) ? kFromM : kFromY;
    }
  } else {
    // Every cell can start fresh; model by M=0 on the borders (traceback
    // stops at kStart anyway).
    for (std::size_t i = 0; i <= m; ++i) {
      if (lay.in_window(i, 0)) M[lay.idx(i, 0)] = 0;
    }
    for (std::size_t j = 0; j <= n && lay.in_window(0, j); ++j) {
      M[lay.idx(0, j)] = 0;
    }
  }

  std::uint64_t cells = 0;
  std::int32_t best = global ? kNegInf : 0;
  std::size_t best_i = 0, best_j = 0;

  for (std::size_t i = 1; i <= m; ++i) {
    std::size_t j_lo, j_hi;
    lay.row_limits(i, j_lo, j_hi);
    if (j_lo > j_hi) continue;  // band misses this row entirely
    const auto ai = static_cast<std::uint8_t>(a[i - 1]);
    cells += j_hi - j_lo + 1;

    // Hot loop: raw row pointers indexed with per-row window offsets, no
    // sentinel guards. kNegInf is INT32_MIN/4, and every computed value is
    // at most (m+n)*(open+|sub|) below a neighbor, so "negative infinity"
    // degrades gracefully without ever wrapping or winning a max against a
    // real score. Window slots outside the band keep their kNegInf default
    // and behave exactly like the untouched cells of a full matrix.
    const std::size_t bi = lay.base(i);
    const std::size_t bp = lay.base(i - 1);
    std::int32_t* m_row = &M[i * W];
    std::int32_t* x_row = &X[i * W];
    std::int32_t* y_row = &Y[i * W];
    const std::int32_t* m_prev = &M[(i - 1) * W];
    const std::int32_t* x_prev = &X[(i - 1) * W];
    const std::int32_t* y_prev = &Y[(i - 1) * W];
    std::uint8_t* tbm_row = &tbM[i * W];
    std::uint8_t* tbx_row = &tbX[i * W];
    std::uint8_t* tby_row = &tbY[i * W];
    const auto& sub_row = scheme.substitution[ai];

    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      // X: gap in b (consume a[i-1]).
      const std::int32_t x_from_m = m_prev[j - bp] - open;
      const std::int32_t x_from_x = x_prev[j - bp] - extend;
      const bool x_take_m = x_from_m >= x_from_x;
      x_row[j - bi] = x_take_m ? x_from_m : x_from_x;
      tbx_row[j - bi] = x_take_m ? kFromM : kFromX;

      // Y: gap in a (consume b[j-1]).
      const std::int32_t y_from_m = m_row[j - 1 - bi] - open;
      const std::int32_t y_from_y = y_row[j - 1 - bi] - extend;
      const bool y_take_m = y_from_m >= y_from_y;
      y_row[j - bi] = y_take_m ? y_from_m : y_from_y;
      tby_row[j - bi] = y_take_m ? kFromM : kFromY;

      // M: substitute a[i-1] with b[j-1].
      std::int32_t prev = m_prev[j - 1 - bp];
      std::uint8_t tb = kFromM;
      if (x_prev[j - 1 - bp] > prev) {
        prev = x_prev[j - 1 - bp];
        tb = kFromX;
      }
      if (y_prev[j - 1 - bp] > prev) {
        prev = y_prev[j - 1 - bp];
        tb = kFromY;
      }
      if (mode == Mode::kLocal && prev < 0) {
        prev = 0;
        tb = kStart;
      }
      const std::int32_t value =
          prev + sub_row[static_cast<std::uint8_t>(b[j - 1])];
      m_row[j - bi] = value;
      tbm_row[j - bi] = tb;
      if (mode == Mode::kLocal && value > best) {
        best = value;
        best_i = i;
        best_j = j;
      }
    }
  }

  AlignmentResult result;
  result.cells = cells;

  // Defaulting accessors for the traceback: out-of-window cells read as
  // the untouched full-matrix defaults.
  const auto m_at = [&](std::size_t i, std::size_t j) {
    return lay.in_window(i, j) ? M[lay.idx(i, j)] : kNegInf;
  };
  const auto x_at = [&](std::size_t i, std::size_t j) {
    return lay.in_window(i, j) ? X[lay.idx(i, j)] : kNegInf;
  };
  const auto y_at = [&](std::size_t i, std::size_t j) {
    return lay.in_window(i, j) ? Y[lay.idx(i, j)] : kNegInf;
  };
  const auto tbm_at = [&](std::size_t i, std::size_t j) {
    return lay.in_window(i, j) ? tbM[lay.idx(i, j)]
                               : static_cast<std::uint8_t>(kStart);
  };
  const auto tbx_at = [&](std::size_t i, std::size_t j) {
    return lay.in_window(i, j) ? tbX[lay.idx(i, j)]
                               : static_cast<std::uint8_t>(kFromM);
  };
  const auto tby_at = [&](std::size_t i, std::size_t j) {
    return lay.in_window(i, j) ? tbY[lay.idx(i, j)]
                               : static_cast<std::uint8_t>(kFromM);
  };

  std::uint8_t state = kFromM;
  std::size_t i = m, j = n;
  if (global) {
    best = m_at(m, n);
    state = kFromM;
    if (x_at(m, n) > best) {
      best = x_at(m, n);
      state = kFromX;
    }
    if (y_at(m, n) > best) {
      best = y_at(m, n);
      state = kFromY;
    }
    result.score = best;
  } else {
    if (best <= 0) return result;  // no positive local alignment
    result.score = best;
    i = best_i;
    j = best_j;
    state = kFromM;
  }

  result.a_end = static_cast<std::uint32_t>(i);
  result.b_end = static_cast<std::uint32_t>(j);

  // Traceback. Stops at (0,0) for global; for local, at the first
  // zero-score M cell (standard Smith-Waterman semantics) or a fresh-start
  // marker.
  while (i > 0 || j > 0) {
    if (mode == Mode::kLocal && state == kFromM && m_at(i, j) <= 0) break;
    if (state == kFromM) {
      const std::uint8_t tb = tbm_at(i, j);
      if (i == 0 && j == 0) break;
      if (path) path->push_back(EditOp::kSubstitute);
      assert(i > 0 && j > 0);
      const std::int16_t sub = scheme.score(static_cast<std::uint8_t>(a[i - 1]),
                                            static_cast<std::uint8_t>(b[j - 1]));
      ++result.columns;
      if (a[i - 1] == b[j - 1]) ++result.matches;
      if (sub > 0) ++result.positives;
      --i;
      --j;
      state = (tb == kStart) ? static_cast<std::uint8_t>(kFromM) : tb;
      if (i == 0 && j == 0) break;
      if (mode == Mode::kLocal && tb == kStart) break;
    } else if (state == kFromX) {
      assert(i > 0);
      if (path) path->push_back(EditOp::kGapInB);
      ++result.columns;
      ++result.gap_columns;
      const std::uint8_t tb = tbx_at(i, j);
      --i;
      state = tb;
    } else {  // kFromY
      assert(j > 0);
      if (path) path->push_back(EditOp::kGapInA);
      ++result.columns;
      ++result.gap_columns;
      const std::uint8_t tb = tby_at(i, j);
      --j;
      state = tb;
    }
  }

  result.a_begin = static_cast<std::uint32_t>(i);
  result.b_begin = static_cast<std::uint32_t>(j);
  if (path) std::reverse(path->begin(), path->end());
  return result;
}

// ---------------------------------------------------------------------------
// Score-only fast path: two rolling rows per state, no traceback storage.
//
// Alignment statistics (region begin, columns, matches, positives, gap
// columns) are propagated FORWARD along the argmax predecessor of each
// cell, using exactly the tie-breaking rules align_impl encodes in its
// traceback pointers. Because the traceback merely replays those argmax
// choices, the propagated bundle of the winning end cell is bit-identical
// to what align_impl reconstructs — including Smith-Waterman's stop at the
// first non-positive M cell on the path, modeled here as a "barrier" that
// resets the bundle. DP memory drops from O(m*n) to O(band) (O(n) when
// unbanded) and the traceback pass disappears entirely.
//
// Only five fields are actually propagated: the region begin pair and the
// substitution/match/positive column counts. The gap statistics follow at
// extraction time from the region geometry — a path from (a0, b0) to
// (a1, b1) with s substitution columns consumes R = a1 - a0 rows and
// C = b1 - b0 columns, so columns = R + C - s and gap_columns = R + C - 2s.
// That makes every gap transition a pure select (no counter updates), and
// the lone M-state update a single branchless add — the data-dependent
// matches/positives branches of a naive bundle would mispredict on real
// sequences and made this path slower than the full-matrix one it is
// meant to beat.
//
// Two storage tiers share one DP body via BundlePolicy:
//  * PackedBundle — all five fields in 11-bit lanes of ONE u64; covers
//    sequences up to 2047 residues (every metagenomic peptide), and a
//    bundle moves through the recurrence as a single register.
//  * WideBundle — 32-bit begin coordinates and counts; covers every
//    sequence up to 2^32 - 1 residues, so the score-only path serves any
//    length in O(band) memory.
// Lane carries cannot happen in either tier: each count is bounded by
// min(m, n), which is below the lane capacity by construction.
// ---------------------------------------------------------------------------

// Unpacked bundle, used only at extraction and never in the hot loop.
struct BundleFields {
  std::uint32_t a_begin = 0, b_begin = 0;
  std::uint32_t subs = 0, matches = 0, positives = 0;
};

struct PackedBundle {
  static constexpr std::size_t kMaxLen = 2'047;
  using Bundle = std::uint64_t;
  // positives | matches<<11 | subs<<22 | b_begin<<33 | a_begin<<44.
  static constexpr int kMatchShift = 11;
  static constexpr int kSubShift = 22;
  static constexpr int kBBeginShift = 33;
  static constexpr int kABeginShift = 44;
  static constexpr std::uint64_t kLaneMask = 0x7FF;

  static Bundle start(std::size_t i, std::size_t j) {
    return (static_cast<std::uint64_t>(i) << kABeginShift) |
           (static_cast<std::uint64_t>(j) << kBBeginShift);
  }
  static std::uint64_t make_inc(bool match, bool positive) {
    return (std::uint64_t{1} << kSubShift) |
           (static_cast<std::uint64_t>(match) << kMatchShift) |
           static_cast<std::uint64_t>(positive);
  }
  static Bundle add_inc(Bundle b, std::uint64_t inc) { return b + inc; }
  /// start(i, j + 1) from start(i, j) — keeps the hot loop's fresh/restart
  /// start values in running registers instead of re-packing every cell.
  static void bump_j(Bundle& b) { b += std::uint64_t{1} << kBBeginShift; }
  // Mask-arithmetic select: guaranteed branchless regardless of how the
  // compiler if-converts — a data-dependent branch here would mispredict
  // on essentially every cell of real sequence pairs.
  static Bundle select(bool take_first, Bundle first, Bundle second) {
    const std::uint64_t mask =
        -static_cast<std::uint64_t>(static_cast<unsigned>(take_first));
    return (first & mask) | (second & ~mask);
  }
  static BundleFields unpack(Bundle b) {
    BundleFields f;
    f.positives = static_cast<std::uint32_t>(b & kLaneMask);
    f.matches = static_cast<std::uint32_t>((b >> kMatchShift) & kLaneMask);
    f.subs = static_cast<std::uint32_t>((b >> kSubShift) & kLaneMask);
    f.b_begin = static_cast<std::uint32_t>((b >> kBBeginShift) & kLaneMask);
    f.a_begin = static_cast<std::uint32_t>(b >> kABeginShift);
    return f;
  }
};

struct WideBundle {
  struct Bundle {
    std::uint32_t a_begin = 0;
    std::uint32_t b_begin = 0;
    std::uint32_t subs = 0;
    std::uint64_t hits = 0;  // positives | matches<<32
  };
  static constexpr int kMatchShift = 32;

  static Bundle start(std::size_t i, std::size_t j) {
    Bundle b;
    b.a_begin = static_cast<std::uint32_t>(i);
    b.b_begin = static_cast<std::uint32_t>(j);
    return b;
  }
  /// Every M step adds one substitution column, so the increment word
  /// carries only the match and positive bits.
  static std::uint64_t make_inc(bool match, bool positive) {
    return (static_cast<std::uint64_t>(match) << kMatchShift) |
           static_cast<std::uint64_t>(positive);
  }
  static Bundle add_inc(Bundle b, std::uint64_t inc) {
    b.hits += inc;
    ++b.subs;
    return b;
  }
  static void bump_j(Bundle& b) { ++b.b_begin; }
  static Bundle select(bool take_first, Bundle first, Bundle second) {
    const std::uint64_t mask =
        -static_cast<std::uint64_t>(static_cast<unsigned>(take_first));
    const auto mask32 = static_cast<std::uint32_t>(mask);
    Bundle out;
    out.a_begin = (first.a_begin & mask32) | (second.a_begin & ~mask32);
    out.b_begin = (first.b_begin & mask32) | (second.b_begin & ~mask32);
    out.subs = (first.subs & mask32) | (second.subs & ~mask32);
    out.hits = (first.hits & mask) | (second.hits & ~mask);
    return out;
  }
  static BundleFields unpack(Bundle b) {
    BundleFields f;
    f.a_begin = b.a_begin;
    f.b_begin = b.b_begin;
    f.positives = static_cast<std::uint32_t>(b.hits);
    f.matches = static_cast<std::uint32_t>(b.hits >> kMatchShift);
    f.subs = b.subs;
    return f;
  }
};

template <typename Policy, bool UseProfile>
AlignmentResult score_impl_t(std::string_view a, std::string_view b,
                             const ScoringScheme& scheme,
                             std::int64_t diagonal, std::int64_t band) {
  using Bundle = typename Policy::Bundle;
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::int32_t open =
      static_cast<std::int32_t>(scheme.gap_open) + scheme.gap_extend;
  const std::int32_t extend = scheme.gap_extend;

  const BandLayout lay(m, n, diagonal, band);
  const std::size_t W = lay.W;

  // One DP state's rolling row: parallel score / bundle arrays, so the
  // score recurrence runs on contiguous int32 and a bundle moves as one
  // cmov-selected value.
  struct Rows {
    std::vector<std::int32_t> score;
    std::vector<Bundle> bundle;
    explicit Rows(std::size_t w) : score(w, kNegInf), bundle(w) {}
  };
  Rows m_prev(W), m_cur(W);
  Rows x_prev(W), x_cur(W);
  Rows y_prev(W), y_cur(W);

  const auto clear_range = [](Rows& row, std::size_t lo, std::size_t hi) {
    std::fill(row.score.begin() + static_cast<std::ptrdiff_t>(lo),
              row.score.begin() + static_cast<std::ptrdiff_t>(hi), kNegInf);
    std::fill(row.bundle.begin() + static_cast<std::ptrdiff_t>(lo),
              row.bundle.begin() + static_cast<std::ptrdiff_t>(hi), Bundle{});
  };

  // Row 0 borders (into the prev buffers): every cell can start a fresh
  // local alignment.
  {
    const std::size_t b0 = lay.base(0);
    for (std::size_t j = b0; j <= n && lay.in_window(0, j); ++j) {
      m_prev.score[j - b0] = 0;
      m_prev.bundle[j - b0] = Policy::start(0, j);
    }
  }

  // Lazily-built query profiles against b, one per residue symbol of a:
  // the M pass reads substitution scores and bundle increment words from
  // two contiguous arrays instead of doing a table lookup and two
  // data-dependent counter updates per cell. Amortized build cost is
  // O(alphabet * n) per pair, which only pays for itself when the window
  // is wide; narrow-window runs (UseProfile = false, chosen by score_impl)
  // compute both values inline per cell instead — the same expressions on
  // the same inputs, so the two variants are bit-identical.
  // Indexed by raw symbol byte, not seq::kAlphabetSize: callers are
  // expected to pass rank-encoded residues, but the engine has never
  // enforced that, so the cache mirrors the substitution table's tolerance
  // of any byte value. Unused entries cost one empty vector each.
  struct Profile {
    std::vector<std::int32_t> sub;
    std::vector<std::uint64_t> inc;
  };
  std::array<Profile, 256> profiles;
  const auto profile_for = [&](std::uint8_t c) -> const Profile& {
    Profile& p = profiles[c];
    if (p.sub.empty()) {
      p.sub.resize(n);
      p.inc.resize(n);
      const auto& sub_row = scheme.substitution[c];
      for (std::size_t j = 0; j < n; ++j) {
        const auto bc = static_cast<std::uint8_t>(b[j]);
        p.sub[j] = sub_row[bc];
        p.inc[j] = Policy::make_inc(c == bc, sub_row[bc] > 0);
      }
    }
    return p;
  };

  std::uint64_t cells = 0;
  std::int32_t best_score = 0;
  Bundle best_bundle{};
  std::size_t best_i = 0, best_j = 0;

  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t bi = lay.base(i);
    const std::size_t bp = lay.base(i - 1);
    std::size_t j_lo, j_hi;
    lay.row_limits(i, j_lo, j_hi);

    // Clear only the slots the loop below leaves untouched: the loop writes
    // the contiguous slots [j_lo - bi, j_hi - bi], so defaulting the head
    // and tail margins (instead of the whole row) restores the "everything
    // outside the computed band is default" invariant at a fraction of the
    // memory traffic. The column-0 border lands inside the head margin
    // (j_lo - bi >= 1 whenever the window holds column 0).
    {
      const std::size_t head = (j_lo <= j_hi) ? j_lo - bi : W;
      for (auto* row : {&m_cur, &x_cur, &y_cur}) {
        clear_range(*row, 0, head);
        if (head < W) clear_range(*row, j_hi - bi + 1, W);
      }
    }

    // Column-0 border for this row.
    if (lay.in_window(i, 0)) {
      m_cur.score[0 - bi] = 0;
      m_cur.bundle[0 - bi] = Policy::start(i, 0);
    }

    if (j_lo <= j_hi) {
      const auto ai = static_cast<std::uint8_t>(a[i - 1]);
      cells += j_hi - j_lo + 1;
      const std::int32_t* prof_sub = nullptr;
      const std::uint64_t* prof_inc = nullptr;
      if constexpr (UseProfile) {
        const Profile& prof = profile_for(ai);
        prof_sub = prof.sub.data();
        prof_inc = prof.inc.data();
      }
      const auto& sub_row = scheme.substitution[ai];

      const std::int32_t* mp_s = m_prev.score.data();
      const Bundle* mp_b = m_prev.bundle.data();
      const std::int32_t* xp_s = x_prev.score.data();
      const Bundle* xp_b = x_prev.bundle.data();
      const std::int32_t* yp_s = y_prev.score.data();
      const Bundle* yp_b = y_prev.bundle.data();
      std::int32_t* mc_s = m_cur.score.data();
      Bundle* mc_b = m_cur.bundle.data();
      std::int32_t* xc_s = x_cur.score.data();
      Bundle* xc_b = x_cur.bundle.data();
      std::int32_t* yc_s = y_cur.score.data();
      Bundle* yc_b = y_cur.bundle.data();

      // The row is computed in two passes. X and M depend only on the
      // previous row, so one fused chain-free pass computes both with full
      // ILP; the local best update rides along (its branch is taken on a
      // vanishing fraction of cells, so it predicts well). Only the Y pass
      // carries a serial dependency, and it runs second, kept to the bare
      // minimum of work. Threading every state's latency through Y's chain
      // (fully interleaved) and splitting into one pass per state (the
      // original form) both ran slower — the former on the exposed chain,
      // the latter on per-pass loop overhead at banded row widths.
      // Fresh/restart start values as running registers, bumped per column.
      Bundle start_prev = Policy::start(i - 1, j_lo - 1);
      Bundle start_here = Policy::start(i, j_lo);
      for (std::size_t j = j_lo; j <= j_hi; ++j) {
        const std::size_t jp = j - bp;
        const std::size_t jq = jp - 1;
        const std::size_t jc = j - bi;

        // X: gap in b (consume a[i-1]); ties prefer M, as in align_impl.
        // A pure select — gap statistics fall out of the geometry later.
        const std::int32_t vm = mp_s[jp] - open;
        const std::int32_t vx = xp_s[jp] - extend;
        const bool take_m = vm >= vx;
        xc_s[jc] = take_m ? vm : vx;
        xc_b[jc] = Policy::select(take_m, mp_b[jp], xp_b[jp]);

        // M: substitute a[i-1] with b[j-1]; predecessor ties prefer M,
        // then X, then Y (strict > to switch), as in align_impl.
        std::int32_t ps = mp_s[jq];
        Bundle pb = mp_b[jq];
        const bool x_beats = xp_s[jq] > ps;
        ps = x_beats ? xp_s[jq] : ps;
        pb = Policy::select(x_beats, xp_b[jq], pb);
        const bool y_beats = yp_s[jq] > ps;
        ps = y_beats ? yp_s[jq] : ps;
        pb = Policy::select(y_beats, yp_b[jq], pb);
        // Fresh local start at (i-1, j-1).
        const bool fresh = ps < 0;
        pb = Policy::select(fresh, start_prev, pb);
        ps = fresh ? 0 : ps;
        std::int32_t subv;
        std::uint64_t incv;
        if constexpr (UseProfile) {
          subv = prof_sub[j - 1];
          incv = prof_inc[j - 1];
        } else {
          const auto bc = static_cast<std::uint8_t>(b[j - 1]);
          subv = sub_row[bc];
          incv = Policy::make_inc(ai == bc, subv > 0);
        }
        const std::int32_t value = ps + subv;
        mc_s[jc] = value;
        // A local traceback reaching a non-positive M cell stops there:
        // the bundle restarts empty at (i, j).
        const bool restart = value <= 0;
        mc_b[jc] = Policy::select(restart, start_here,
                                  Policy::add_inc(pb, incv));
        // Local best tracking: same scan order as the interleaved loop
        // (i ascending, then j ascending, strict > to switch), so the
        // first occurrence of the maximum wins exactly as align_impl's.
        if (value > best_score) {
          best_score = value;
          best_bundle = mc_b[jc];
          best_i = i;
          best_j = j;
        }
        Policy::bump_j(start_prev);
        Policy::bump_j(start_here);
      }

      // Y: gap in a (consume b[j-1]); the serial chain, carried in
      // registers. Reads M's current row, so it runs after the M pass.
      {
        std::int32_t y_s = yc_s[j_lo - 1 - bi];
        Bundle y_b = yc_b[j_lo - 1 - bi];
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
          const std::size_t jc = j - bi;
          const std::int32_t vm = mc_s[jc - 1] - open;
          const std::int32_t vy = y_s - extend;
          const bool take_m = vm >= vy;
          y_s = take_m ? vm : vy;
          y_b = Policy::select(take_m, mc_b[jc - 1], y_b);
          yc_s[jc] = y_s;
          yc_b[jc] = y_b;
        }
      }
    }

    std::swap(m_prev, m_cur);
    std::swap(x_prev, x_cur);
    std::swap(y_prev, y_cur);
  }

  AlignmentResult result;
  result.cells = cells;
  if (best_score <= 0) return result;  // no positive local alignment

  const BundleFields f = Policy::unpack(best_bundle);
  const auto rows_used = static_cast<std::uint32_t>(best_i) - f.a_begin;
  const auto cols_used = static_cast<std::uint32_t>(best_j) - f.b_begin;
  result.score = best_score;
  result.a_end = static_cast<std::uint32_t>(best_i);
  result.b_end = static_cast<std::uint32_t>(best_j);
  result.a_begin = f.a_begin;
  result.b_begin = f.b_begin;
  result.columns = rows_used + cols_used - f.subs;
  result.matches = f.matches;
  result.positives = f.positives;
  result.gap_columns = result.columns - f.subs;
  return result;
}

/// Lift the runtime profile choice to a template argument so the hot loop
/// specializes per lookup strategy.
template <typename Policy>
AlignmentResult score_dispatch(std::string_view a, std::string_view b,
                               const ScoringScheme& scheme,
                               std::int64_t diagonal, std::int64_t band,
                               bool use_profile) {
  return use_profile
             ? score_impl_t<Policy, true>(a, b, scheme, diagonal, band)
             : score_impl_t<Policy, false>(a, b, scheme, diagonal, band);
}

AlignmentResult score_impl(std::string_view a, std::string_view b,
                           const ScoringScheme& scheme, std::int64_t diagonal,
                           std::int64_t band) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  // Narrow windows sweep too few cells to amortize the O(alphabet * n)
  // profile build; the crossover against the per-cell inline lookup sits
  // around a window width of ~100–130 columns on current hardware.
  const bool use_profile = BandLayout(m, n, diagonal, band).W > 128;
  if (m <= PackedBundle::kMaxLen && n <= PackedBundle::kMaxLen) {
    return score_dispatch<PackedBundle>(a, b, scheme, diagonal, band,
                                        use_profile);
  }
  return score_dispatch<WideBundle>(a, b, scheme, diagonal, band,
                                    use_profile);
}

}  // namespace

AlignmentResult global_align(std::string_view a, std::string_view b,
                             const ScoringScheme& scheme) {
  return align_impl(a, b, scheme, Mode::kGlobal, 0,
                    static_cast<std::int64_t>(a.size() + b.size()));
}

AlignmentResult global_align_path(std::string_view a, std::string_view b,
                                  const ScoringScheme& scheme,
                                  std::vector<EditOp>& path) {
  return align_impl(a, b, scheme, Mode::kGlobal, 0,
                    static_cast<std::int64_t>(a.size() + b.size()), &path);
}

AlignmentResult local_align(std::string_view a, std::string_view b,
                            const ScoringScheme& scheme) {
  return align_impl(a, b, scheme, Mode::kLocal, 0,
                    static_cast<std::int64_t>(a.size() + b.size()));
}

AlignmentResult banded_local_align(std::string_view a, std::string_view b,
                                   const ScoringScheme& scheme,
                                   std::int64_t diagonal,
                                   std::uint32_t band_halfwidth) {
  return align_impl(a, b, scheme, Mode::kLocal, diagonal,
                    static_cast<std::int64_t>(band_halfwidth));
}

AlignmentResult local_align_score(std::string_view a, std::string_view b,
                                  const ScoringScheme& scheme) {
  return score_impl(a, b, scheme, 0,
                    static_cast<std::int64_t>(a.size() + b.size()));
}

AlignmentResult banded_local_align_score(std::string_view a,
                                         std::string_view b,
                                         const ScoringScheme& scheme,
                                         std::int64_t diagonal,
                                         std::uint32_t band_halfwidth) {
  return score_impl(a, b, scheme, diagonal,
                    static_cast<std::int64_t>(band_halfwidth));
}

}  // namespace pclust::align
