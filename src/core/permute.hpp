#pragma once
// Out-of-place row/column permutation primitives and the reusable scratch
// workspace.  Algorithm 1 performs every permutation out-of-place into a
// temporary vector of max(m, n) elements and copies the result back; these
// helpers are those two loops, expressed once.  The cache-aware engines'
// static row permutation (Section 4.7) runs in place instead, through the
// cycle walker (core/cycle_walker.hpp): permute_row_group below.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/contracts.hpp"
#include "core/cycle_walker.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/aligned.hpp"

namespace inplace::detail {

/// Copies `count` elements dst <- src (disjoint).  Trivially copyable
/// element types go through memcpy — the compiler cannot always prove
/// the equivalence through the template, and glibc's memcpy beats an
/// element loop on whole-row copy-backs — everything else through
/// std::copy.
template <typename T>
inline void copy_back(T* dst, const T* src, std::uint64_t count) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    std::memcpy(dst, src, static_cast<std::size_t>(count) * sizeof(T));
  } else {
    std::copy(src, src + count, dst);
  }
}

/// Like copy_back, with the plan's kernel set and streaming decision:
/// `stream` selects the tier's self-fencing non-temporal copy for
/// destinations that will not be re-read before eviction.
template <typename T>
inline void copy_back(T* dst, const T* src, std::uint64_t count,
                      const kernels::kernel_set* ks, bool stream) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    if (ks != nullptr) {
      kernels::copy_elems(*ks, dst, src, static_cast<std::size_t>(count),
                          stream);
      return;
    }
  }
  copy_back(dst, src, count);
}

#if INPLACE_CHECKS_ENABLED
/// Checked-mode slot-coverage tracker: proves that a shuffle of `size`
/// slots touches every slot exactly once (i.e. its index map is a
/// bijection).  Marking all `size` slots without a duplicate is exactly
/// that proof, since the indices are range-checked first.  A thread-local
/// generation-stamped array makes each tracker O(size) without clearing,
/// and keeps the concurrent engines' checks race-free.
class shuffle_coverage {
 public:
  explicit shuffle_coverage(std::uint64_t size) : size_(size) {
    if (stamps_.size() < size) {
      // inplace-lint: allow-next(raw-alloc): checked-mode-only coverage
      // tracker; thread-local, grows monotonically to max(size) and is
      // absent from release builds (INPLACE_CHECKS_ENABLED gate)
      stamps_.resize(static_cast<std::size_t>(size), 0);
    }
    gen_ = ++generation_;
  }

  /// Marks `slot` visited; fails the contract on a duplicate visit.
  void mark(std::uint64_t slot, const char* what) {
    if (stamps_[static_cast<std::size_t>(slot)] == gen_) {
      contract_fail("postcondition", "slot visited once", __FILE__, __LINE__,
                    what);
    }
    stamps_[static_cast<std::size_t>(slot)] = gen_;
    ++marked_;
  }

  /// True when every slot in [0, size) was marked exactly once.
  [[nodiscard]] bool complete() const { return marked_ == size_; }

 private:
  inline static thread_local std::vector<std::uint64_t> stamps_;
  inline static thread_local std::uint64_t generation_ = 0;
  std::uint64_t size_;
  std::uint64_t gen_ = 0;
  std::uint64_t marked_ = 0;
};
#endif

/// Scratch storage for one in-place transposition.  Holds the paper's
/// max(m, n)-element temporary vector plus the small fixed-size buffers
/// used by the cache-aware passes (Sections 4.6-4.7): a head buffer of
/// width^2 elements, one sub-row and a visited bitmap for the row
/// permutation.  The skinny engine sizes its own subset (reserve_skinny,
/// cpu/skinny.hpp): a line of n, plus `team` and `saved` for its parallel
/// passes and the split lists in `cycles`.
/// All scratch buffers are 64-byte aligned (util::aligned_vector): the
/// vector kernels' non-temporal and aligned paths require it, and the
/// scalar loops assume it (std::assume_aligned below).
template <typename T>
struct workspace {
  util::aligned_vector<T> line;    ///< max(m, n) elements (Algorithm 1's tmp)
  util::aligned_vector<T> head;    ///< width * width elements (fine rotation)
  util::aligned_vector<T> subrow;  ///< width elements (coarse rotation)
  visited_map visited;                      ///< m flags (cycle discovery)
  cycle_memo cycles;  ///< skinny: split segments of a memo-less pass
  std::vector<std::uint64_t> offsets;       ///< per-column residual shifts
  util::aligned_vector<std::uint64_t> index;  ///< kernel gather offsets
  util::aligned_vector<T> team;   ///< skinny: threads 1.. row + window
  util::aligned_vector<T> saved;  ///< skinny: q segment-start rows

  void reserve(std::uint64_t m, std::uint64_t n, std::uint64_t width) {
    // inplace-lint: allow-block(raw-alloc): this IS the audited scratch
    // funnel — acquire_scratch sizes every workspace through here, once
    // per plan, before the engines run (Theorem 6's O(max(m,n)) bound)
    line.resize(static_cast<std::size_t>(std::max(m, n)));
    head.resize(static_cast<std::size_t>(width * width));
    subrow.resize(static_cast<std::size_t>(width));
    visited.allocate(m, scratch_rung::full);
    offsets.resize(static_cast<std::size_t>(width));
    index.resize(static_cast<std::size_t>(width));
    cycles = cycle_memo{};
    // inplace-lint: end-block
    INPLACE_ENSURE(line.size() >= std::max(m, n),
                   "workspace line smaller than max(m, n) — Theorem 6's "
                   "scratch bound");
    INPLACE_ENSURE(util::is_scratch_aligned(line.data()) &&
                       util::is_scratch_aligned(head.data()) &&
                       util::is_scratch_aligned(subrow.data()),
                   "workspace scratch is not 64-byte aligned (the kernel "
                   "layer's streaming/aligned paths require it)");
  }

  /// Bytes the buffers and the memo-less cycle lists retain.
  [[nodiscard]] std::size_t bytes() const {
    return (line.capacity() + head.capacity() + subrow.capacity() +
            team.capacity() + saved.capacity()) *
               sizeof(T) +
           (offsets.capacity() + index.capacity()) * sizeof(std::uint64_t) +
           visited.bytes() + cycles.bytes();
  }

  /// True when this workspace can serve an m x n problem with `width`-wide
  /// column groups (checked-mode capacity precondition for the engines).
  [[nodiscard]] bool fits(std::uint64_t m, std::uint64_t n,
                          std::uint64_t width) const {
    return line.size() >= std::max(m, n) && head.size() >= width * width &&
           subrow.size() >= width && visited.size() >= m &&
           offsets.size() >= width && index.size() >= width;
  }
};

/// Distinguishes which pass family discovered a memo: the same (m, n,
/// width) tuple produces different cycle structures for q vs q^-1 and for
/// the fused C2R vs R2C column shuffles, so the pass identity is part of
/// the fingerprint.
enum class memo_pass : std::uint64_t {
  row_q = 1,
  row_q_inv = 2,
  col_c2r = 3,
  col_r2c = 4,
};

/// Folds the identifying tuple of a memoized cycle structure into one
/// nonzero fingerprint word (FNV-1a over the four fields).  A memo stamped
/// at discovery and re-checked on replay turns a shape-mismatched replay —
/// which would silently scramble the buffer — into a contract violation.
inline std::uint64_t memo_fingerprint(std::uint64_t m, std::uint64_t n,
                                      std::uint64_t width, memo_pass pass) {
  std::uint64_t h = 1469598103934665603ull;
  const std::uint64_t words[4] = {m, n, width,
                                  static_cast<std::uint64_t>(pass)};
  for (const std::uint64_t v : words) {
    for (unsigned b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h != 0 ? h : 1;
}

/// Per-column-group memoized cycle structure for the fused column shuffles
/// (engine_blocked): groups[g] holds the cycle leaders of group g's
/// group-local permutation, each stamped with the pass's memo_fingerprint.
/// Valid for one (m, n, width, direction) tuple.
struct col_cycle_memo {
  std::vector<cycle_memo> groups;
};

/// tmp[j] = row[idx(j)] for j in [0, n), then copy tmp back over the row.
/// `tmp` must be 64-byte-aligned scratch disjoint from the row (the
/// engines pass workspace::line); the loop asserts both to the compiler.
/// Checked mode proves idx is a bijection on [0, n): n in-range gathers
/// without a duplicate source read every slot exactly once.
template <typename T, typename IndexFn>
void row_gather_inplace(T* row, std::uint64_t n, T* tmp, IndexFn idx) {
  INPLACE_CHECK(util::is_scratch_aligned(tmp),
                "row shuffle scratch is not 64-byte aligned (use "
                "workspace/aligned_vector scratch)");
#if INPLACE_CHECKS_ENABLED
  shuffle_coverage cover(n);
#endif
  const T* __restrict src = row;
  T* __restrict dst = std::assume_aligned<util::scratch_alignment>(tmp);
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t s = idx(j);
    INPLACE_CHECK(s < n, "row shuffle gather index out of range (Eq. 31)");
#if INPLACE_CHECKS_ENABLED
    cover.mark(s, "row shuffle gather read a slot twice (Eq. 31 is not a "
                  "bijection)");
#endif
    dst[j] = src[s];
  }
  INPLACE_ENSURE(cover.complete(),
                 "row shuffle gather skipped a slot (Eq. 31)");
  copy_back(row, tmp, n);
}

/// tmp[idx(j)] = row[j] for j in [0, n), then copy tmp back over the row.
/// Same tmp alignment/aliasing contract as row_gather_inplace.
/// Checked mode proves idx is a bijection on [0, n): n in-range scatters
/// without a collision fill every slot exactly once.
template <typename T, typename IndexFn>
void row_scatter_inplace(T* row, std::uint64_t n, T* tmp, IndexFn idx) {
  INPLACE_CHECK(util::is_scratch_aligned(tmp),
                "row shuffle scratch is not 64-byte aligned (use "
                "workspace/aligned_vector scratch)");
#if INPLACE_CHECKS_ENABLED
  shuffle_coverage cover(n);
#endif
  const T* __restrict src = row;
  T* __restrict dst = std::assume_aligned<util::scratch_alignment>(tmp);
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t d = idx(j);
    INPLACE_CHECK(d < n, "row shuffle scatter index out of range (Eq. 24)");
#if INPLACE_CHECKS_ENABLED
    cover.mark(d, "row shuffle scatter wrote a slot twice (Eq. 24 is not a "
                  "bijection)");
#endif
    dst[d] = src[j];
  }
  INPLACE_ENSURE(cover.complete(),
                 "row shuffle scatter left a slot unwritten (Eq. 24)");
  copy_back(row, tmp, n);
}

/// tmp[i] = A[idx(i)][j] for i in [0, m), then copy tmp back down column j.
/// A is row-major m x n.  (Reference path; the cache-aware engines use the
/// blocked primitives in rotate.hpp instead.)  Checked mode proves idx is
/// a bijection on [0, m) — the column shuffle visits every row once.
template <typename T, typename IndexFn>
void column_gather_inplace(T* a, std::uint64_t m, std::uint64_t n,
                           std::uint64_t j, T* tmp, IndexFn idx) {
  INPLACE_CHECK(util::is_scratch_aligned(tmp),
                "column shuffle scratch is not 64-byte aligned (use "
                "workspace/aligned_vector scratch)");
#if INPLACE_CHECKS_ENABLED
  shuffle_coverage cover(m);
#endif
  const T* __restrict src = a;
  T* __restrict dst = std::assume_aligned<util::scratch_alignment>(tmp);
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t s = idx(i);
    INPLACE_CHECK(s < m, "column shuffle index out of range (Eq. 26)");
#if INPLACE_CHECKS_ENABLED
    cover.mark(s, "column shuffle read a row twice (Eq. 26 is not a "
                  "bijection)");
#endif
    dst[i] = src[s * n + j];
  }
  INPLACE_ENSURE(cover.complete(),
                 "column shuffle skipped a row (Eq. 26)");
  for (std::uint64_t i = 0; i < m; ++i) {
    a[i * n + j] = tmp[i];
  }
}

/// Applies the row permutation (gather dst[i] = src[perm(i)], perm a
/// bijection on [0, m)) to the width-wide column group starting at column
/// j0 of a row-major m x n matrix, moving width-element sub-rows through
/// `tmp` (width elements).  The cycle leaders come from `memo` — replayed
/// when it holds this pass's discovery (stamped `key`), discovered into
/// it otherwise (Section 4.7 computes the cycles once and stores their
/// descriptors).  With no memo each cycle moves as soon as discovery has
/// walked it, so no leader list is kept and nothing allocates — the
/// memo-less runs include the noexcept rollback.
template <typename T, typename PermFn>
void permute_row_group(T* a, std::uint64_t m, std::uint64_t n,
                       std::uint64_t j0, std::uint64_t width, PermFn perm,
                       cycle_memo* memo, std::uint64_t key, workspace<T>& ws,
                       T* tmp, const kernels::kernel_set* ks, bool stream) {
  INPLACE_REQUIRE(j0 + width <= n,
                  "row permutation column group exceeds the row width");
  block_mover<T> mv(a + j0, n, width, tmp, ks, stream);
  if (memo == nullptr) {
    discover_split_cycles(ws.cycles, m, perm, ws.visited, /*seg=*/0,
                          [&](std::uint64_t y) { move_cycle(mv, perm, y, m); });
    mv.finish();
    return;
  }
  move_cycles(mv, perm, discover_or_replay(*memo, key, m, perm, ws.visited),
              m);
}

}  // namespace inplace::detail
