// AVX2 instantiation of the batched kernel: 16 pairs per batch, one per
// 16-bit lane. This TU (and only this TU) is compiled with -mavx2; it is
// reached solely through runtime dispatch after cpuid confirms support.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "batch_kernel.hpp"

namespace pclust::align::detail {

namespace {

struct Avx2Traits {
  using V = __m256i;
  using Word = std::uint32_t;  // one movemask of 32 packed lane bytes
  static constexpr int kLanes = 16;

  static V zero() { return _mm256_setzero_si256(); }
  static V set1(std::int16_t v) { return _mm256_set1_epi16(v); }
  static V loadu(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(std::int16_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V add(V a, V b) { return _mm256_add_epi16(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi16(a, b); }
  static V adds(V a, V b) { return _mm256_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm256_subs_epi16(a, b); }
  static V max(V a, V b) { return _mm256_max_epi16(a, b); }
  static V cmpgt(V a, V b) { return _mm256_cmpgt_epi16(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V andnot(V mask, V v) { return _mm256_andnot_si256(mask, v); }
  /// a where mask (full-lane -1/0 masks, so byte-blend is exact), else b.
  static V blend(V mask, V a, V b) {
    return _mm256_blendv_epi8(b, a, mask);
  }
  static bool any(V mask) {
    return _mm256_testz_si256(mask, mask) == 0;
  }
  /// One bit per lane of each -1/0 mask (layout: code_bit).
  static Word pack_masks(V a, V b) {
    return static_cast<Word>(
        _mm256_movemask_epi8(_mm256_packs_epi16(a, b)));
  }

  /// Hardware-gather substitution lookup: out[l] = table[idx16[l]], with
  /// every index already in bounds. Two dword gathers, packed back to i16
  /// (values fit, so the signed pack never saturates) with the cross-lane
  /// order restored.
  static constexpr bool kHasGather = true;
  static V gather16(const std::int32_t* table, V idx16) {
    const __m256i lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(idx16));
    const __m256i hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(idx16, 1));
    const __m256i g0 = _mm256_i32gather_epi32(table, lo, 4);
    const __m256i g1 = _mm256_i32gather_epi32(table, hi, 4);
    return _mm256_permute4x64_epi64(_mm256_packs_epi32(g0, g1),
                                    _MM_SHUFFLE(3, 1, 2, 0));
  }
};

}  // namespace

namespace avx2 {
void run_batch(const LaneJob* jobs, std::size_t count, bool banded,
               std::int64_t band, const ScoringScheme& scheme, LaneOut* out) {
  run_batch_impl<Avx2Traits>(jobs, count, banded, band, scheme, out);
}
}  // namespace avx2

}  // namespace pclust::align::detail

#else  // non-x86: never dispatched (detect_best_isa() reports scalar).

#include <cstdlib>

#include "batch_detail.hpp"

namespace pclust::align::detail::avx2 {
void run_batch(const LaneJob*, std::size_t, bool, std::int64_t,
               const ScoringScheme&, LaneOut*) {
  std::abort();
}
}  // namespace pclust::align::detail::avx2

#endif
