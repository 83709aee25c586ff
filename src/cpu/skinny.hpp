#pragma once
// Section 6.1: specialized transposition for the tall, narrow arrays that
// arise when converting Arrays of Structures to Structures of Arrays.
// Preconditions (enforced by the planner): n <= skinny_col_limit and
// m > n.  All column operations act over the full (tiny) row width, so
// every pass streams whole rows — the CPU analogue of the paper's "perform
// all column operations in on-chip memory".
//
// C2R runs in three streaming passes (6 element touches, Theorem 6):
//   1. pre-rotation fused with the row shuffle: one top-down sweep with a
//      (c-1)-row head buffer absorbing the wrap-around reads,
//   2. the rotation component p of the column shuffle (residuals j < n),
//   3. the static row permutation q as whole-row cycle following.
// R2C is the mirror image, with the final fused pass sweeping bottom-up.
//
// Each pass is a standalone helper and the R2C helpers are the exact
// pass-wise inverses of the C2R helpers.  core/executor.hpp sequences
// them as the skinny pass list and replays the inverses of completed
// passes when an execution throws at a pass boundary.

#include <algorithm>
#include <cstdint>

#include "core/equations.hpp"
#include "core/permute.hpp"
#include "core/rotate.hpp"

namespace inplace::detail {

template <typename T>
void reserve_skinny(workspace<T>& ws, std::uint64_t m, std::uint64_t n) {
  // inplace-lint: allow-next(raw-alloc): acquisition-funnel entry — the
  // skinny engine sizes its workspace here, before any stage runs
  ws.reserve(m, n, /*width=*/n);
}

/// The narrow-row streaming gate shared by both directions: a narrow row
/// cannot amortize non-temporal write-combining and fencing (measured
/// 2.6x slower end-to-end at n = 16 before this gate), so narrow-row
/// plans stay temporal regardless of the matrix-scale streaming decision.
template <typename T>
[[nodiscard]] inline bool skinny_stream_ok(std::uint64_t n, bool stream) {
  return stream && n * sizeof(T) >= kernels::stream_min_copy_bytes;
}

/// No-op row-block transform: the default hook for the fused passes
/// below.  The in-register tile tier substitutes a real transform (the
/// tile plans' fused row pass in core/executor.hpp) that rewrites whole
/// rows in place.
struct no_block_transform {
  template <typename T>
  void operator()(T* /*rows*/, std::uint64_t /*nrows*/) const noexcept {}
};

/// C2R pass 1 — fused pre-rotation (gather, Eq. 23) + row shuffle
/// (scatter, Eq. 24): tmp[d'_i(j)] <- A[(i + ⌊j/b⌋) mod m][j].  Sources
/// sit at or below the sweep row except for wrapped reads, which the head
/// buffer (original rows [0, c-1)) serves.  Inverse of
/// skinny_fused_gather.
///
/// `block(rows, k)` is an optional in-place transform of k contiguous
/// rows, applied to every row exactly once *before* the pass consumes it
/// — i.e. the pass computes (scatter ∘ block) with no extra sweep.  The
/// gather window at row i reads rows [i, i+c), so the prologue
/// transforms rows [0, c) (before the head copies, which must capture
/// transformed rows) and each later iteration transforms the row sliding
/// into the window.  The tile tier fuses its per-slab register transpose
/// here; the default is a no-op.
template <typename T, typename Math, typename BlockFn = no_block_transform>
void skinny_fused_scatter(T* a, const Math& mm, workspace<T>& ws,
                          const kernels::kernel_set* ks, bool stream,
                          BlockFn block = BlockFn{}) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  T* tmp = ws.line.data();
  T* head = ws.head.data();
  block(a, mm.c);  // c = gcd(m, n) <= m
  const std::uint64_t head_rows = mm.needs_prerotate() ? mm.c - 1 : 0;
  for (std::uint64_t r = 0; r < head_rows; ++r) {
    std::copy(a + r * n, a + (r + 1) * n, head + r * n);
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    // The fused gather reads rows [i, i + c) — the next row's window
    // slides down by one, so prefetch the row entering it.
    if (i + mm.c < m) {
      kernels::prefetch_read(a + (i + mm.c) * n);
    }
    if (i > 0 && i + mm.c - 1 < m) {
      block(a + (i + mm.c - 1) * n, 1);
    }
    d_prime_stepper step(mm, i);
    for (std::uint64_t j = 0; j < n; ++j, step.advance()) {
      const std::uint64_t s = i + step.rotation();  // ⌊j/b⌋
      tmp[step.value()] = s < m ? a[s * n + j] : head[(s - m) * n + j];
    }
    copy_back(a + i * n, tmp, n, ks, stream);
  }
}

/// C2R pass 2 — rotation component p_j of the column shuffle.  Offsets
/// are exactly j in [0, n) < m, so the fine streaming pass applies
/// directly.  Inverse of skinny_rotate_p_inv.
template <typename T, typename Math>
void skinny_rotate_p(T* a, const Math& mm, workspace<T>& ws,
                     const kernels::kernel_set* ks, bool stream) {
  const std::uint64_t n = mm.n;
  for (std::uint64_t j = 0; j < n; ++j) {
    ws.offsets[j] = mm.p_offset(j);
  }
  fine_rotate_group(a, mm.m, n, /*j0=*/0, /*width=*/n, ws.offsets.data(),
                    ws.head.data(), ks, ws.index.data(), stream);
}

/// R2C pass 2 — inverse rotation p^-1 (offsets (m - j) mod m; the group
/// machinery normalizes them to a coarse whole-row rotation plus small
/// residuals).  Inverse of skinny_rotate_p.
template <typename T, typename Math>
void skinny_rotate_p_inv(T* a, const Math& mm, workspace<T>& ws,
                         const kernels::kernel_set* ks, bool stream) {
  rotate_group_cache_aware(
      a, mm.m, mm.n, /*j0=*/0, /*w=*/mm.n,
      [&](std::uint64_t j) { return mm.p_inv_offset(j); }, ws, ks, stream);
}

/// C2R pass 3 — static row permutation q, moving whole contiguous rows.
/// The cycles depend only on the plan's shape, so a memo replays them
/// without re-discovery.  Inverse of skinny_permute_q_inv.
template <typename T, typename Math>
void skinny_permute_q(T* a, const Math& mm, workspace<T>& ws,
                      cycle_memo* memo, const kernels::kernel_set* ks,
                      bool stream) {
  const auto q = [&](std::uint64_t i) { return mm.q(i); };
  const std::uint64_t want =
      memo_fingerprint(mm.m, mm.n, /*width=*/mm.n, memo_pass::row_q);
  std::vector<std::uint64_t>& starts =
      memo != nullptr ? memo->starts : ws.cycle_starts;
  if (memo == nullptr || !memo->ready) {
    find_cycles(mm.m, q, ws.visited, starts);
    if (memo != nullptr) {
      memo->ready = true;
      memo->key = want;
    }
  } else {
    INPLACE_REQUIRE(memo->key == want,
                    "cycle_memo replayed against a different shape/pass "
                    "than the one that discovered it (stale memo would "
                    "silently corrupt the buffer)");
  }
  permute_rows_in_group(a, mm.n, /*j0=*/0, /*width=*/mm.n, q, starts,
                        ws.line.data(), ks, stream);
}

/// R2C pass 1 — inverse row permutation q^-1, whole-row cycle following
/// (memoized the same way as skinny_permute_q).  Inverse of
/// skinny_permute_q.
template <typename T, typename Math>
void skinny_permute_q_inv(T* a, const Math& mm, workspace<T>& ws,
                          cycle_memo* memo, const kernels::kernel_set* ks,
                          bool stream) {
  const auto q_inv = [&](std::uint64_t i) { return mm.q_inv(i); };
  const std::uint64_t want =
      memo_fingerprint(mm.m, mm.n, /*width=*/mm.n, memo_pass::row_q_inv);
  std::vector<std::uint64_t>& starts =
      memo != nullptr ? memo->starts : ws.cycle_starts;
  if (memo == nullptr || !memo->ready) {
    find_cycles(mm.m, q_inv, ws.visited, starts);
    if (memo != nullptr) {
      memo->ready = true;
      memo->key = want;
    }
  } else {
    INPLACE_REQUIRE(memo->key == want,
                    "cycle_memo replayed against a different shape/pass "
                    "than the one that discovered it (stale memo would "
                    "silently corrupt the buffer)");
  }
  permute_rows_in_group(a, mm.n, /*j0=*/0, /*width=*/mm.n, q_inv, starts,
                        ws.line.data(), ks, stream);
}

/// R2C pass 3 — row shuffle (gather d') fused with the inverse
/// pre-rotation (gather offset -⌊j/b⌋): row i, col j <- row
/// (i - ⌊j/b⌋) mod m, col d'_s(j).  Sweeping bottom-up keeps unwrapped
/// sources unwritten; the wrapped reads (into the top rows written
/// first) come from a saved tail.  Inverse of skinny_fused_scatter.
///
/// `block(row, 1)` is the mirror of skinny_fused_scatter's hook, applied
/// to each assembled scratch row just before its copy-back — the pass
/// computes (block ∘ gather) with no extra sweep.  Every source the
/// gather reads (in-matrix or saved tail) is a pre-transform value, so
/// fusing the transform after the gather keeps the two passes exact
/// inverses when the hooks are inverses.
template <typename T, typename Math, typename BlockFn = no_block_transform>
void skinny_fused_gather(T* a, const Math& mm, workspace<T>& ws,
                         const kernels::kernel_set* ks, bool stream,
                         BlockFn block = BlockFn{}) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  T* tmp = ws.line.data();
  T* head = ws.head.data();
  const std::uint64_t tail_rows = mm.needs_prerotate() ? mm.c - 1 : 0;
  const std::uint64_t tail_base = m - tail_rows;
  for (std::uint64_t r = 0; r < tail_rows; ++r) {
    std::copy(a + (tail_base + r) * n, a + (tail_base + r + 1) * n,
              head + r * n);
  }
  // Index simplification: with s = (i - ⌊j/b⌋) mod m we have
  // s + ⌊j/b⌋ ≡ i (mod m), so d'_s(j) = ((s + ⌊j/b⌋) mod m + jm) mod n
  // collapses to the unrotated d_i(j) = (i + jm) mod n — incrementally
  // computable with one add and a conditional subtract per element.
  const std::uint64_t m_mod_n = m % n;
  for (std::uint64_t ii = m; ii-- > 0;) {
    // Bottom-up sweep: row ii reads rows (ii - c, ii]; prefetch the row
    // entering the window next iteration.
    if (ii > mm.c) {
      kernels::prefetch_read(a + (ii - mm.c) * n);
    }
    std::uint64_t jj = ii % n;  // d_i(0)
    std::uint64_t off = 0;      // ⌊j/b⌋
    std::uint64_t jb = 0;       // j mod b
    for (std::uint64_t j = 0; j < n; ++j) {
      const bool wrapped = ii < off;
      const std::uint64_t s = wrapped ? ii + m - off : ii - off;
      tmp[j] = wrapped ? head[(s - tail_base) * n + jj] : a[s * n + jj];
      jj += m_mod_n;
      if (jj >= n) {
        jj -= n;
      }
      if (++jb == mm.b) {
        jb = 0;
        ++off;
      }
    }
    block(tmp, 1);
    copy_back(a + ii * n, tmp, n, ks, stream);
  }
}

}  // namespace inplace::detail
