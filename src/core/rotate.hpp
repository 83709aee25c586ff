#pragma once
// Column rotations (Section 4.6).  A rotation gathers dst[i] =
// src[(i + k_j) mod m] down each column j.  The cache-aware form processes
// `width` adjacent columns together so that every memory touch moves a
// cache-line-sized sub-row:
//
//   1. a *coarse* pass rotates the whole group by a common amount k using
//      analytic cycle following (z = gcd(m, k) cycles of length m/z), and
//   2. a *fine* pass applies the per-column residuals (all < width) in a
//      single streaming sweep with a small "head" buffer.
//
// Both passes move sub-rows, not single elements, which is the whole point
// of Section 4.6.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ranges>
#include <vector>

#include "core/permute.hpp"

namespace inplace::detail {

/// Reference rotation of a single column by gather offset k (k in [0, m)).
template <typename T>
void rotate_column_naive(T* a, std::uint64_t m, std::uint64_t n,
                         std::uint64_t j, std::uint64_t k, T* tmp) {
  if (k == 0) {
    return;
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t s = i + k;
    if (s >= m) {
      s -= m;
    }
    tmp[i] = a[s * n + j];
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    a[i * n + j] = tmp[i];
  }
}

/// Coarse pass: rotate the `width`-wide column group at j0 by the common
/// gather offset k (in [0, m)), in place: the walker's cycle following
/// over whole sub-rows with f(i) = (i + k) mod m, whose gcd(m, k) cycles
/// (the residue classes mod gcd(m, k)) are led by 0 .. gcd(m, k) - 1.
/// The hop stride is the constant k rows — beyond the hardware
/// prefetchers' reach — so each hop prefetches the next source sub-row
/// (move_segment).  With a kernel set and `stream`, the sub-row stores go
/// non-temporal (their lines are dead until the next pass), published
/// with one fence() before returning.
template <typename T>
void coarse_rotate_group(T* a, std::uint64_t m, std::uint64_t n,
                         std::uint64_t j0, std::uint64_t width,
                         std::uint64_t k, T* subrow_tmp,
                         const kernels::kernel_set* ks = nullptr,
                         bool stream = false) {
  if (k == 0) {
    return;
  }
  block_mover<T> mv(a + j0, n, width, subrow_tmp, ks, stream);
  const auto f = [m, k](std::uint64_t i) {
    const std::uint64_t s = i + k;
    return s >= m ? s - m : s;
  };
  move_cycles(mv, f, std::views::iota(std::uint64_t{0}, std::gcd(m, k)), m);
}

/// Rows [lo, hi) of the fine pass (below): row i, column jj of the group
/// gathers from row i + res[jj], read from the matrix below hi and from
/// `window` (the first max_res rows at or past hi, `width` apart) at or
/// past it.  `idx` (width entries, res[jj]*n + jj) enables the kernel
/// path; see fine_rotate_group.  The skinny engine runs one call per slab
/// of its team, each with its neighbour's first rows as the window.
template <typename T>
void fine_rotate_rows(T* base, std::uint64_t lo, std::uint64_t hi,
                      std::uint64_t n, std::uint64_t width,
                      const std::uint64_t* res, std::uint64_t max_res,
                      const T* window, const kernels::kernel_set* ks,
                      const std::uint64_t* idx, bool stream) {
  std::uint64_t i = lo;
  if constexpr (kernels::has_gather_lanes<T>) {
    if (ks != nullptr && idx != nullptr && hi - lo > max_res) {
      const std::uint64_t unwrapped = hi - max_res;
      for (; i < unwrapped; ++i) {
        T* row = base + i * n;
        kernels::gather_index(*ks, row, row, idx,
                              static_cast<std::size_t>(width), stream);
      }
      if (stream) {
        ks->fence();
      }
    }
  }
  for (; i < hi; ++i) {
    for (std::uint64_t jj = 0; jj < width; ++jj) {
      const std::uint64_t s = i + res[jj];
      base[i * n + jj] =
          s < hi ? base[s * n + jj] : window[(s - hi) * width + jj];
    }
  }
}

/// Fine pass: apply per-column residual gather offsets res[jj] (all
/// strictly less than min(width, m)) to the group in one streaming sweep.
/// The first max(res) rows are saved in `head` (width*width elements), so
/// wrapped reads never observe already-overwritten rows.
///
/// Kernel path: for rows [0, m - max_res) no read wraps, and row i's
/// update is exactly the indexed gather row_i[jj] = row_i[idx[jj]] with
/// idx[jj] = res[jj]*n + jj — constant across rows, so it is built once
/// in `idx` (workspace::index, width entries) and the rows dispatch to
/// gather_index.  The in-place call is safe under the kernel contract:
/// slot jj' of row i is written after every read of it (reads come from
/// res*n + jj stripes at row indices >= i; within the row, res[jj']=0
/// lanes read slot jj' itself, gathered before the block's store).  The
/// wrapped tail rows [m - max_res, m) keep the scalar head-buffer loop.
/// Row i's gather reads rows [i, i + max_res], all but the last already
/// read for earlier rows, so one new sub-row enters per row.  The sweep
/// issues no software prefetch: a lookahead prefetch of the entering
/// sub-row measured slower on page-strided rows, and a per-lane prefetch
/// of the cached window inside gather_index cost the f32 sweep ~40%
/// (EXPERIMENTS.md, "Software prefetch in the blocked column passes").  `stream` selects non-temporal row stores (the pass is a
/// pure streaming sweep; lines are dead until the next pass), published
/// with one fence() before returning.
template <typename T>
void fine_rotate_group(T* a, std::uint64_t m, std::uint64_t n,
                       std::uint64_t j0, std::uint64_t width,
                       const std::uint64_t* res, T* head,
                       const kernels::kernel_set* ks = nullptr,
                       std::uint64_t* idx = nullptr, bool stream = false) {
  std::uint64_t max_res = 0;
  for (std::uint64_t jj = 0; jj < width; ++jj) {
    max_res = std::max(max_res, res[jj]);
  }
  if (max_res == 0) {
    return;  // Section 4.6: the fine pass is often skippable
  }
  // The head buffer holds width*width elements, one width-wide sub-row per
  // saved row; residuals >= min(width, m) would read past it (or past the
  // matrix) once the sweep wraps.
  INPLACE_REQUIRE(max_res < std::min(width, m) || m <= 1,
                  "fine rotation residual outside the cache-aware window "
                  "(Section 4.6)");
  T* base = a + j0;
  for (std::uint64_t r = 0; r < max_res; ++r) {
    copy_back(head + r * width, base + r * n, width);
  }
  if (ks != nullptr && idx != nullptr) {
    for (std::uint64_t jj = 0; jj < width; ++jj) {
      idx[jj] = res[jj] * n + jj;
    }
  }
  fine_rotate_rows(base, 0, m, n, width, res, max_res, head, ks, idx, stream);
}

/// Cache-aware rotation of one `w`-wide column group at j0 by per-column
/// gather offsets amount(j).  Amounts within the group must lie in a window
/// of fewer than min(width, m) consecutive values mod m (true for all of
/// the paper's rotation families: ±j and ±⌊j/b⌋); groups violating the
/// window assumption fall back to naive per-column rotation.
template <typename T, typename AmountFn>
void rotate_group_cache_aware(T* a, std::uint64_t m, std::uint64_t n,
                              std::uint64_t j0, std::uint64_t w,
                              AmountFn amount, workspace<T>& ws,
                              const kernels::kernel_set* ks = nullptr,
                              bool stream = false) {
  // Normalize the group's rotation amounts to a common coarse offset k
  // plus small non-negative residuals: map each (amount - amount(j0))
  // mod m into the signed window (-m/2, m/2] and take its minimum as the
  // correction to k.
  const std::uint64_t k0 = amount(j0) % m;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (std::uint64_t jj = 0; jj < w; ++jj) {
    const std::uint64_t d = (amount(j0 + jj) % m + m - k0) % m;
    auto sd = static_cast<std::int64_t>(d);
    if (d > m / 2) {
      sd -= static_cast<std::int64_t>(m);
    }
    lo = std::min(lo, sd);
    hi = std::max(hi, sd);
  }
  const auto span = static_cast<std::uint64_t>(hi - lo);
  if (span >= std::min(w, m)) {
    for (std::uint64_t jj = 0; jj < w; ++jj) {
      rotate_column_naive(a, m, n, j0 + jj, amount(j0 + jj) % m,
                          ws.line.data());
    }
    return;
  }
  const auto sm = static_cast<std::int64_t>(m);
  const std::uint64_t k =
      (k0 + static_cast<std::uint64_t>((lo % sm + sm) % sm)) % m;
  for (std::uint64_t jj = 0; jj < w; ++jj) {
    ws.offsets[jj] = (amount(j0 + jj) % m + m - k) % m;
  }
  coarse_rotate_group(a, m, n, j0, w, k, ws.subrow.data(), ks, stream);
  fine_rotate_group(a, m, n, j0, w, ws.offsets.data(), ws.head.data(), ks,
                    ws.index.data(), stream);
}

/// Serial convenience wrapper: rotates every column of the array, group by
/// group.  (The parallel engines drive rotate_group_cache_aware directly.)
template <typename T, typename AmountFn>
void rotate_columns_blocked(T* a, std::uint64_t m, std::uint64_t n,
                            std::uint64_t width, AmountFn amount,
                            workspace<T>& ws,
                            const kernels::kernel_set* ks = nullptr,
                            bool stream = false) {
  if (m <= 1) {
    return;
  }
  for (std::uint64_t j0 = 0; j0 < n; j0 += width) {
    rotate_group_cache_aware(a, m, n, j0, std::min(width, n - j0), amount,
                             ws, ks, stream);
  }
}

}  // namespace inplace::detail
