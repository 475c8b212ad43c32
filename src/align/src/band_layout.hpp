// Banded DP geometry shared by the scalar engines (pairwise.cpp) and the
// batched SIMD kernels (batch*.cpp). Internal to the align library.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace pclust::align::detail {

inline constexpr std::int32_t kNegInf =
    std::numeric_limits<std::int32_t>::min() / 4;

/// Banded matrix geometry. When the band is narrower than the full row,
/// each row i stores only a window of W = 2*band+3 columns around the band
/// center (i - diagonal); the extra slots beyond 2*band+1 absorb the j and
/// j-1 reads into the previous row, whose window is shifted by one. Reads
/// outside a row's window must go through the defaulting accessors — those
/// cells were never computed and behave like the untouched (kNegInf/kStart)
/// cells of a full matrix.
struct BandLayout {
  std::size_t m, n, W;
  std::int64_t diagonal, band;
  bool banded;

  BandLayout(std::size_t m_, std::size_t n_, std::int64_t diagonal_,
             std::int64_t band_)
      : m(m_), n(n_), diagonal(diagonal_), band(band_) {
    assert(band >= 0 && "band half-width must be non-negative");
    banded = band < static_cast<std::int64_t>(m + n) &&
             static_cast<std::size_t>(2 * band + 3) < n + 1;
    W = banded ? static_cast<std::size_t>(2 * band + 3) : n + 1;
  }

  /// First column physically stored for row i.
  [[nodiscard]] std::size_t base(std::size_t i) const {
    if (!banded) return 0;
    const std::int64_t lo =
        static_cast<std::int64_t>(i) - diagonal - band - 1;
    const auto max_base = static_cast<std::int64_t>(n + 1 - W);
    return static_cast<std::size_t>(std::clamp<std::int64_t>(lo, 0, max_base));
  }

  [[nodiscard]] bool in_window(std::size_t i, std::size_t j) const {
    const std::size_t b = base(i);
    return j >= b && j < b + W;
  }

  /// Flat index of (i, j); caller must ensure in_window(i, j).
  [[nodiscard]] std::size_t idx(std::size_t i, std::size_t j) const {
    return i * W + (j - base(i));
  }

  /// Band limits for row i: [j_lo, j_hi], or empty (j_lo > j_hi).
  void row_limits(std::size_t i, std::size_t& j_lo, std::size_t& j_hi) const {
    j_lo = 1;
    j_hi = n;
    if (band < static_cast<std::int64_t>(m + n)) {
      const std::int64_t center = static_cast<std::int64_t>(i) - diagonal;
      const std::int64_t lo64 = std::max<std::int64_t>(1, center - band);
      const std::int64_t hi64 =
          std::min<std::int64_t>(static_cast<std::int64_t>(n), center + band);
      if (lo64 > hi64) {
        j_lo = 1;
        j_hi = 0;  // band misses this row entirely
        return;
      }
      j_lo = static_cast<std::size_t>(lo64);
      j_hi = static_cast<std::size_t>(hi64);
    }
  }
};

}  // namespace pclust::align::detail
