// SSE2 instantiation of the batched kernel: 8 pairs per batch, one per
// 16-bit lane. Compiled with -msse2 (a no-op on x86-64, where SSE2 is
// architectural, but explicit so the CMake target documents the contract).
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "batch_kernel.hpp"

namespace pclust::align::detail {

namespace {

struct Sse2Traits {
  using V = __m128i;
  using Word = std::uint16_t;  // one movemask of 16 packed lane bytes
  static constexpr int kLanes = 8;

  static V zero() { return _mm_setzero_si128(); }
  static V set1(std::int16_t v) { return _mm_set1_epi16(v); }
  static V loadu(const std::int16_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(std::int16_t* p, V v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static V add(V a, V b) { return _mm_add_epi16(a, b); }
  static V sub(V a, V b) { return _mm_sub_epi16(a, b); }
  static V adds(V a, V b) { return _mm_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm_subs_epi16(a, b); }
  static V max(V a, V b) { return _mm_max_epi16(a, b); }
  static V cmpgt(V a, V b) { return _mm_cmpgt_epi16(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
  static V or_(V a, V b) { return _mm_or_si128(a, b); }
  static V andnot(V mask, V v) { return _mm_andnot_si128(mask, v); }
  /// a where mask (per-bit; masks here are full-lane -1/0), else b.
  static V blend(V mask, V a, V b) {
    return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
  }
  static bool any(V mask) { return _mm_movemask_epi8(mask) != 0; }
  /// One bit per lane of each -1/0 mask (layout: code_bit).
  static Word pack_masks(V a, V b) {
    return static_cast<Word>(_mm_movemask_epi8(_mm_packs_epi16(a, b)));
  }

  /// SSE2 has no gather; the kernel fills the rp profile array instead.
  static constexpr bool kHasGather = false;
};

}  // namespace

namespace sse2 {
void run_batch(const LaneJob* jobs, std::size_t count, bool banded,
               std::int64_t band, const ScoringScheme& scheme, LaneOut* out) {
  run_batch_impl<Sse2Traits>(jobs, count, banded, band, scheme, out);
}
}  // namespace sse2

}  // namespace pclust::align::detail

#else  // non-x86: never dispatched (detect_best_isa() reports scalar).

#include <cstdlib>

#include "batch_detail.hpp"

namespace pclust::align::detail::sse2 {
void run_batch(const LaneJob*, std::size_t, bool, std::int64_t,
               const ScoringScheme&, LaneOut*) {
  std::abort();
}
}  // namespace pclust::align::detail::sse2

#endif
