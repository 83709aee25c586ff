#pragma once
// The production engine: Algorithm 1 with the paper's Section 4
// optimizations applied —
//   * fully gather-based row shuffles (Section 4.2/4.3),
//   * the column shuffle decomposed into a rotation and a static row
//     permutation (Section 4.1),
//   * cache-aware two-phase rotations moving cache-line-sized sub-rows
//     (Section 4.6),
//   * cache-aware cycle-following row permutation (Section 4.7),
//   * OpenMP parallelism over independent rows / column groups — the
//     decomposition's "perfect load balancing" claim.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/equations.hpp"
#include "core/permute.hpp"
#include "core/plan.hpp"
#include "core/rotate.hpp"
#include "util/threads.hpp"

#if defined(INPLACE_HAVE_OPENMP)
#include <omp.h>
#endif

namespace inplace::detail {

/// Tag selecting workspace_pool's single-workspace constructor (the OOM
/// ladder's reduced rung: the plan is rewritten to threads = 1, so one
/// workspace covers the whole — serial — team).
struct serial_workspace_tag {};

/// Per-thread scratch pool sized for one plan.
template <typename T>
class workspace_pool {
 public:
  /// Sizes the pool for the current OpenMP pool (or threads_hint if
  /// larger).  A later thread_count_guard can still raise the pool past
  /// either — the engines call ensure() after installing their guard so
  /// the pool always covers the team about to launch.
  workspace_pool(std::uint64_t m, std::uint64_t n, std::uint64_t width,
                 int threads_hint = 0)
      : m_(m), n_(n), width_(width) {
    grow(std::max({util::hardware_threads(), threads_hint, 1}));
  }

  /// Minimum-footprint pool: exactly one workspace, for serial plans.
  workspace_pool(std::uint64_t m, std::uint64_t n, std::uint64_t width,
                 serial_workspace_tag)
      : m_(m), n_(n), width_(width) {
    grow(1);
  }

  /// Grows the pool to at least `count` workspaces.  Must run outside any
  /// parallel region that uses the pool (the engines call it between
  /// installing their thread_count_guard and launching the first loop).
  void ensure(int count) {
    if (count > 0 && static_cast<std::size_t>(count) > pool_.size()) {
      grow(count);
    }
  }

  /// This thread's workspace.  The pool must cover the active team: an
  /// undersized pool would silently alias one workspace across two
  /// threads — a data race on the scratch line that corrupts results —
  /// so checked builds fail loudly instead of wrapping around.
  workspace<T>& local() {
#if defined(INPLACE_HAVE_OPENMP)
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    INPLACE_CHECK(tid < pool_.size(),
                  "workspace_pool undersized for the active parallel "
                  "region (two threads would alias one workspace)");
    return pool_[tid % pool_.size()];  // modulo: release-mode bounds safety
#else
    return pool_.front();
#endif
  }

  workspace<T>& front() { return pool_.front(); }

  [[nodiscard]] std::size_t size() const { return pool_.size(); }

 private:
  void grow(int count) {
    // inplace-lint: allow-block(raw-alloc): per-thread workspace pool
    // growth is part of the audited acquisition funnel (ensure() runs
    // before the parallel region; each slot sizes via workspace::reserve)
    const std::size_t old = pool_.size();
    pool_.resize(static_cast<std::size_t>(count));
    for (std::size_t k = old; k < pool_.size(); ++k) {
      pool_[k].reserve(m_, n_, width_);
    }
    // inplace-lint: end-block
  }

  std::uint64_t m_;
  std::uint64_t n_;
  std::uint64_t width_;
  std::vector<workspace<T>> pool_;
};

/// Column groups a thread takes at a time in the group-parallel passes:
/// one when a group (m rows of `width` elements) spills L2 — page-scale
/// groups are few per team (38-66 on the 1.2 GiB keys), and batching
/// them four at a time left threads idle — else four, which keeps small
/// in-cache groups on fewer threads.
template <typename T>
[[nodiscard]] inline int group_chunk(std::uint64_t m, std::uint64_t width) {
  return m * width * sizeof(T) > kernels::probed_caches().l2_bytes ? 1 : 4;
}

/// Parallel cache-aware rotation of all columns by amount(j).  Each
/// group fences its own streamed stores (rotate_group_cache_aware), so
/// the parallel region ends with every non-temporal write published.
template <typename T, typename AmountFn>
void rotate_all_parallel(T* a, std::uint64_t m, std::uint64_t n,
                         std::uint64_t width, AmountFn amount,
                         workspace_pool<T>& pool,
                         const kernels::kernel_set* ks = nullptr,
                         bool stream = false) {
  if (m <= 1) {
    return;
  }
  const auto groups =
      static_cast<std::int64_t>((n + width - 1) / width);
  util::parallel_for(groups, group_chunk<T>(m, width), [&](std::int64_t g) {
    const std::uint64_t j0 = static_cast<std::uint64_t>(g) * width;
    const std::uint64_t w = std::min(width, n - j0);
    rotate_group_cache_aware(a, m, n, j0, w, amount, pool.local(), ks,
                             stream);
  });
}

/// Parallel row shuffle: each row gathers through its own scratch line.
template <typename T, typename IndexFn>
void shuffle_rows_parallel(T* a, std::uint64_t m, std::uint64_t n,
                           IndexFn idx, workspace_pool<T>& pool) {
  const auto rows = static_cast<std::int64_t>(m);
  util::parallel_for(rows, 8, [&](std::int64_t ii) {
    const auto i = static_cast<std::uint64_t>(ii);
    row_gather_inplace(a + i * n, n, pool.local().line.data(),
                       [&](std::uint64_t j) { return idx(i, j); });
  });
}

/// Parallel row shuffle, scatter form.  The scratch line is cache
/// resident, so the scatter costs the same memory traffic as the gather
/// while the C2R index function d' (Eq. 24) is far cheaper to evaluate
/// than its modular inverse d'^-1 (Eq. 31).
template <typename T, typename IndexFn>
void shuffle_rows_scatter_parallel(T* a, std::uint64_t m, std::uint64_t n,
                                   IndexFn idx, workspace_pool<T>& pool) {
  const auto rows = static_cast<std::int64_t>(m);
  util::parallel_for(rows, 8, [&](std::int64_t ii) {
    const auto i = static_cast<std::uint64_t>(ii);
    row_scatter_inplace(a + i * n, n, pool.local().line.data(),
                        [&](std::uint64_t j) { return idx(i, j); });
  });
}

/// Whether the kernel layer should run row i's d' shuffle, and the
/// segment geometry it needs.  Row i's index stream d'_i(j) is piecewise
/// affine: within each of the c segments of length b = n/c, advance()
/// adds only (m mod n), so the whole segment is one affine
/// gather/scatter kernel call; the +1 / wrap corrections happen between
/// segments (Eq. 31 strength reduction, vector form).  Short segments
/// (b below one vector's worth of lanes with headroom) stay on the
/// scalar stepper — per-segment dispatch overhead would dominate.
/// The kernels additionally require the scratch line to spill L2
/// (kernels::row_kernel_min_line_bytes): the scattered side of a row
/// shuffle is the line itself, and while it is cache-resident a hardware
/// gather/scatter has no miss latency to hide — measured ~25% slower
/// than the scalar stepper on an AVX-512 Xeon for a 40 KiB line, in
/// both the scatter (C2R) and gather (R2C) forms.
inline constexpr std::uint64_t row_pass_min_segment = 16;

/// The shared engagement predicate for both row-pass directions.
template <typename T, typename Math>
[[nodiscard]] inline bool row_pass_use_kernels(
    const Math& mm, const kernels::kernel_set* ks) {
  return kernels::has_gather_lanes<T> && ks != nullptr &&
         mm.b >= row_pass_min_segment &&
         mm.n * sizeof(T) >= kernels::row_kernel_min_line_bytes();
}

#if INPLACE_CHECKS_ENABLED
/// Checked-mode pre-pass for the kernel row shuffle: replays row i's
/// index stream with the scalar stepper and proves it is a bijection on
/// [0, n) — the same coverage proof the scalar path gets inline.
template <typename Math>
inline void check_row_stream_bijective(const Math& mm, std::uint64_t i) {
  shuffle_coverage cover(mm.n);
  d_prime_stepper step(mm, i);
  for (std::uint64_t j = 0; j < mm.n; ++j, step.advance()) {
    INPLACE_CHECK(step.value() < mm.n,
                  "row shuffle kernel index out of range (Eq. 31)");
    cover.mark(step.value(),
               "row shuffle kernel stream hit a slot twice (Eq. 24/31 is "
               "not a bijection)");
  }
  INPLACE_ENSURE(cover.complete(),
                 "row shuffle kernel stream skipped a slot (Eq. 24/31)");
}
#endif

/// Runs row i's d' shuffle through the kernel set, one affine segment at
/// a time.  Scatter form (C2R): tmp[d'_i(j)] = row[j].  Gather form
/// (R2C): tmp[j] = row[d'_i(j)].  The inter-segment index update mirrors
/// d_prime_stepper::advance()'s boundary branch exactly.
template <bool Scatter, typename T, typename Math>
inline void row_pass_kernel_row(T* row, T* tmp, const Math& mm,
                                std::uint64_t i,
                                const kernels::kernel_set& ks) {
  const std::uint64_t n = mm.n;
  const std::uint64_t b = mm.b;
  const std::uint64_t step = mm.m % n;
  const std::uint64_t b_step = b * step % n;
  const std::uint64_t wrap_fix = (n + 1 - step) % n;  // (1 - m) mod n
  std::uint64_t val = i % n;
  std::uint64_t u = i;
  for (std::uint64_t s = 0; s < mm.c; ++s) {
    if constexpr (Scatter) {
      kernels::scatter_affine(ks, tmp, row + s * b,
                              static_cast<std::size_t>(b), val, step, n);
    } else {
      kernels::gather_affine(ks, tmp + s * b, row,
                             static_cast<std::size_t>(b), val, step, n);
    }
    val += b_step;
    if (val >= n) {
      val -= n;
    }
    if (++u == mm.m) {
      u = 0;
      val += wrap_fix;
    } else {
      val += 1;
    }
    if (val >= n) {
      val -= n;
    }
  }
}

/// Parallel C2R row shuffle with the incremental d' evaluator: scatter
/// tmp[d'_i(j)] = row[j] with adds and conditional subtracts only.
/// With a kernel set, 4/8-byte elements dispatch each affine segment to
/// the tier's scatter kernel and copy back through the tier's (optionally
/// non-temporal) contiguous copy.
template <typename T, typename Math>
void c2r_row_pass(T* a, const Math& mm, workspace_pool<T>& pool,
                  const kernels::kernel_set* ks = nullptr,
                  bool stream = false) {
  const auto rows = static_cast<std::int64_t>(mm.m);
  const std::uint64_t n = mm.n;
  [[maybe_unused]] const bool use_kernels = row_pass_use_kernels<T>(mm, ks);
  util::parallel_for(rows, 8, [&](std::int64_t ii) {
    const auto i = static_cast<std::uint64_t>(ii);
    T* row = a + i * n;
    T* tmp = pool.local().line.data();
    if constexpr (kernels::has_gather_lanes<T>) {
      if (use_kernels) {
#if INPLACE_CHECKS_ENABLED
        check_row_stream_bijective(mm, i);
#endif
        row_pass_kernel_row</*Scatter=*/true>(row, tmp, mm, i, *ks);
        copy_back(row, tmp, n, ks, stream);
        return;
      }
    }
    d_prime_stepper step(mm, i);
    for (std::uint64_t j = 0; j < n; ++j, step.advance()) {
      tmp[step.value()] = row[j];
    }
    copy_back(row, tmp, n, ks, stream);
  });
}

/// Parallel R2C row shuffle (gather form, Section 4.3) with the
/// incremental d' evaluator: tmp[j] = row[d'_i(j)].  Kernel dispatch as
/// in c2r_row_pass, using the tier's affine gather (vpgatherdd/qq).
template <typename T, typename Math>
void r2c_row_pass(T* a, const Math& mm, workspace_pool<T>& pool,
                  const kernels::kernel_set* ks = nullptr,
                  bool stream = false) {
  const auto rows = static_cast<std::int64_t>(mm.m);
  const std::uint64_t n = mm.n;
  [[maybe_unused]] const bool use_kernels = row_pass_use_kernels<T>(mm, ks);
  util::parallel_for(rows, 8, [&](std::int64_t ii) {
    const auto i = static_cast<std::uint64_t>(ii);
    T* row = a + i * n;
    T* tmp = pool.local().line.data();
    if constexpr (kernels::has_gather_lanes<T>) {
      if (use_kernels) {
#if INPLACE_CHECKS_ENABLED
        check_row_stream_bijective(mm, i);
#endif
        row_pass_kernel_row</*Scatter=*/false>(row, tmp, mm, i, *ks);
        copy_back(row, tmp, n, ks, stream);
        return;
      }
    }
    d_prime_stepper step(mm, i);
    for (std::uint64_t j = 0; j < n; ++j, step.advance()) {
      tmp[j] = row[step.value()];
    }
    copy_back(row, tmp, n, ks, stream);
  });
}

/// The column-shuffle memo's per-group slots for `groups` groups (null
/// with no memo), sized on first use.  A warm memo from another pass,
/// shape or width (group count or `key`) throws inplace::error in every
/// build before any group moves: the team's per-group replays must not
/// be the first to see the mismatch.
inline cycle_memo* col_memo_slots(col_cycle_memo* memo, std::uint64_t groups,
                                  std::uint64_t key) {
  if (memo == nullptr) {
    return nullptr;
  }
  if (memo->groups.empty()) {
    // inplace-lint: allow-next(raw-alloc): one-time cycle-memo
    // population, bounded by the group count and reused on every replay
    memo->groups.resize(static_cast<std::size_t>(groups));
  }
  if (memo->groups.size() != groups ||
      (memo->groups.front().ready && memo->groups.front().key != key)) {
    throw error(
        "inplace: col_cycle_memo replayed against a different "
        "shape/width/pass than the one that discovered it (a stale memo "
        "would silently corrupt the buffer)");
  }
  return memo->groups.data();
}

/// Fused column shuffle for C2R (Section 4.1-4.2 sharpened): instead of
/// [rotate p: coarse+fine] + [permute q], each width-wide group runs
///   1. a fine streaming rotation by (j - j0) mod m, then
///   2. cycle-following with the group-local permutation
///      P_g(i) = (q(i) + j0) mod m, moving whole sub-rows —
/// because s'_j = rot_{j-j0} then P_g as sequential gathers.  Two fewer
/// element touches per element than the split form.
/// An optional col_cycle_memo caches each group's cycle leaders across
/// executions of one plan: the first run discovers them (into the memo
/// slot instead of the per-thread scratch), every later run replays them
/// with no discovery walk.
template <typename T, typename Math>
void c2r_col_shuffle(T* a, const Math& mm, std::uint64_t width,
                     workspace_pool<T>& pool,
                     col_cycle_memo* memo = nullptr,
                     const kernels::kernel_set* ks = nullptr,
                     bool stream = false) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t groups = (n + width - 1) / width;
  const std::uint64_t key = memo_fingerprint(m, n, width, memo_pass::col_c2r);
  cycle_memo* slots = col_memo_slots(memo, groups, key);
  util::parallel_for(static_cast<std::int64_t>(groups),
                     group_chunk<T>(m, width), [&](std::int64_t g) {
    workspace<T>& ws = pool.local();
    const std::uint64_t j0 = static_cast<std::uint64_t>(g) * width;
    const std::uint64_t w = std::min(width, n - j0);
    for (std::uint64_t jj = 0; jj < w; ++jj) {
      ws.offsets[jj] = jj % m;
    }
    fine_rotate_group(a, m, n, j0, w, ws.offsets.data(), ws.head.data(), ks);
    const std::uint64_t shift = j0 % m;
    const auto perm = [&](std::uint64_t i) {
      const std::uint64_t v = mm.q(i) + shift;
      return v >= m ? v - m : v;
    };
    permute_row_group(a, m, n, j0, w, perm,
                      slots != nullptr ? slots + g : nullptr, key, ws,
                      ws.subrow.data(), ks, stream);
  });
}

/// Fused inverse column shuffle for R2C: per group, cycle-following with
/// W_g(x) = q^-1((x + delta_g) mod m), delta_g = (-j0 - (w-1)) mod m,
/// then a fine streaming rotation by (w-1-jj) mod m.
template <typename T, typename Math>
void r2c_col_shuffle(T* a, const Math& mm, std::uint64_t width,
                     workspace_pool<T>& pool,
                     col_cycle_memo* memo = nullptr,
                     const kernels::kernel_set* ks = nullptr,
                     bool stream = false) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t groups = (n + width - 1) / width;
  const std::uint64_t key = memo_fingerprint(m, n, width, memo_pass::col_r2c);
  cycle_memo* slots = col_memo_slots(memo, groups, key);
  util::parallel_for(static_cast<std::int64_t>(groups),
                     group_chunk<T>(m, width), [&](std::int64_t g) {
    workspace<T>& ws = pool.local();
    const std::uint64_t j0 = static_cast<std::uint64_t>(g) * width;
    const std::uint64_t w = std::min(width, n - j0);
    const std::uint64_t delta = (m - (j0 + w - 1) % m) % m;
    const auto perm = [&](std::uint64_t x) {
      std::uint64_t v = x + delta;
      v %= m;
      return mm.q_inv(v);
    };
    permute_row_group(a, m, n, j0, w, perm,
                      slots != nullptr ? slots + g : nullptr, key, ws,
                      ws.subrow.data(), ks, stream);
    for (std::uint64_t jj = 0; jj < w; ++jj) {
      ws.offsets[jj] = (w - 1 - jj) % m;
    }
    fine_rotate_group(a, m, n, j0, w, ws.offsets.data(), ws.head.data(), ks);
  });
}

/// Whether the blocked engine's group-local passes (the pre-rotation and
/// the column shuffle) stream.  They work one column group (width * m
/// elements) at a time, and stages within a group re-read each other's
/// writes; when the group fits in cache, non-temporal stores would evict
/// exactly the lines the next stage is about to load, turning L2 hits
/// into DRAM round-trips (measured 0.8-0.9x in bench/ablation_kernels).
/// So they stream only when the planner chose streaming for the matrix
/// and the group itself spills.
template <typename T>
[[nodiscard]] inline bool blocked_stream_group(const transpose_plan& plan) {
  return plan.streaming_stores &&
         kernels::streaming_profitable(
             static_cast<std::size_t>(plan.block_width * plan.m) * sizeof(T),
             plan.ktier);
}

}  // namespace inplace::detail
