#pragma once
// Column rotations (Section 4.6).  A rotation gathers dst[i] =
// src[(i + k_j) mod m] down each column j.  The cache-aware form processes
// `width` adjacent columns together so that every memory touch moves a
// cache-line-sized sub-row:
//
//   1. a *coarse* pass rotates the whole group by a common amount k using
//      analytic cycle following (z = gcd(m, k) cycles of length m/z), and
//   2. a *fine* pass applies the per-column residuals (all < width) in a
//      single sweep with a small "head" buffer; on the vector tiers the
//      sweep is a log2 network of masked row blends.
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
/// past it.  The skinny engine runs one call per slab of its team, each
/// with its neighbour's first rows as the window; the blocked fine pass
/// uses the scalar loop only (fine_rotate_group).
///
/// Kernel path (`ks` and `idx`): rows [lo, hi - max_res) read no window,
/// and row i's update is the indexed gather row_i[jj] = row_i[idx[jj]]
/// with idx[jj] = res[jj]*n + jj, constant across rows, so those rows
/// dispatch to gather_index.  The in-place call is safe under the kernel
/// contract: slot jj' of row i is written after every read of it (reads
/// come from res*n + jj stripes at row indices >= i; within the row,
/// res[jj'] = 0 lanes read slot jj' itself, gathered before the block's
/// store).  `stream` selects non-temporal row stores, published with one
/// fence() before returning.
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
/// strictly less than min(width, m)) to the group in one sweep.  The
/// first max(res) rows are saved in `head` ((min(width, m) - 1) * width
/// elements, fine_head_elements), so the wrapped reads of the last rows
/// never observe already-overwritten rows.
///
/// Rows [0, m - max_res) read no saved row.  On a tier with a blend
/// network (4/8-byte elements) they go through kernels::rotate_rows in
/// one call: blocks of V rows per vector of lanes, log2 V masked blends
/// in registers, no index table and no per-lane gather (EXPERIMENTS.md,
/// "Where the blocked column passes wait").  Elsewhere, and for the
/// wrapped tail rows [m - max_res, m) always, the scalar loop of
/// fine_rotate_rows gathers row i from rows [i, i + max_res] and the
/// saved rows.  The network prefetches each entering sub-row whole (its
/// lines are otherwise first read one at a time, many rows apart); the
/// scalar loop, which reads every line of a row at once, prefetches
/// nothing (EXPERIMENTS.md, "Software prefetch in the blocked column
/// passes").  Nothing streams: the rows a block stores sit next to the
/// ones later blocks read.
template <typename T>
void fine_rotate_group(T* a, std::uint64_t m, std::uint64_t n,
                       std::uint64_t j0, std::uint64_t width,
                       const std::uint64_t* res, T* head,
                       const kernels::kernel_set* ks = nullptr) {
  std::uint64_t max_res = 0;
  for (std::uint64_t jj = 0; jj < width; ++jj) {
    max_res = std::max(max_res, res[jj]);
  }
  if (max_res == 0) {
    return;  // Section 4.6: the fine pass is often skippable
  }
  // The head buffer holds min(width, m) - 1 width-wide sub-rows;
  // residuals >= min(width, m) would read past it (or past the matrix)
  // once the sweep wraps.
  INPLACE_REQUIRE(max_res < std::min(width, m) || m <= 1,
                  "fine rotation residual outside the cache-aware window "
                  "(Section 4.6)");
  T* base = a + j0;
  for (std::uint64_t r = 0; r < max_res; ++r) {
    copy_back(head + r * width, base + r * n, width);
  }
  std::uint64_t lo = 0;
  if constexpr (kernels::has_gather_lanes<T>) {
    if (ks != nullptr && kernels::has_rotate_rows<T>(*ks)) {
      lo = m - max_res;
      kernels::rotate_rows(*ks, base, static_cast<std::size_t>(lo),
                           static_cast<std::size_t>(m),
                           static_cast<std::size_t>(n),
                           static_cast<std::size_t>(width), res);
    }
  }
  fine_rotate_rows(base, lo, m, n, width, res, max_res, head, nullptr,
                   nullptr, false);
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
  fine_rotate_group(a, m, n, j0, w, ws.offsets.data(), ws.head.data(), ks);
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
