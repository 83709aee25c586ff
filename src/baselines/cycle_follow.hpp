#pragma once
// The traditional cycle-following in-place transposition the paper
// compares against (its "MKL" and Knuth [3] reference class).
//
// A row-major m x n array transposes by the linear permutation
//   dest(l) = (l * m) mod (mn - 1)        for 0 < l < mn - 1,
// with 0 and mn-1 fixed.  Two variants are provided:
//   * bitvector: O(mn) bits of auxiliary space, O(mn) work — the practical
//     serial formulation;
//   * space-limited: O(1) auxiliary space, which must recompute cycles by
//     walking each candidate leader, giving the O(mn log mn)-and-worse
//     work the paper's introduction cites.
// Cycle statistics are exposed so the "poorly distributed cycle lengths"
// parallelization argument can be demonstrated empirically.

#include <cstdint>
#include <vector>

#include "core/errors.hpp"

namespace inplace::baselines {

/// Cycle-length distribution of the transpose permutation for an m x n
/// row-major array (implemented in cycle_follow.cpp).
std::vector<std::uint64_t> transpose_cycle_lengths(std::uint64_t m,
                                                   std::uint64_t n);

/// In-place transpose by cycle following with a visited bitvector.
/// Afterwards the buffer holds the row-major n x m transpose.
template <typename T>
void cycle_following_transpose(T* a, std::uint64_t m, std::uint64_t n) {
  inplace::detail::checked_extent(a, m, n);
  const std::uint64_t total = m * n;
  if (total < 2 || m == 1 || n == 1) {
    return;
  }
  const std::uint64_t wrap = total - 1;
  std::vector<std::uint8_t> visited(total, 0);
  // Gather walk: position l receives the value from src(l) = (l*n) mod
  // (mn-1), the inverse of dest since n*m ≡ 1 (mod mn-1).
  for (std::uint64_t y = 1; y < wrap; ++y) {
    if (visited[y]) {
      continue;
    }
    const T saved = a[y];
    std::uint64_t l = y;
    for (;;) {
      visited[l] = 1;
      const std::uint64_t src = l * n % wrap;
      if (src == y) {
        a[l] = saved;
        break;
      }
      a[l] = a[src];
      l = src;
    }
  }
}

/// In-place transpose by cycle following with O(1) auxiliary space: a
/// position starts a cycle only if it is the minimum of its cycle, which
/// is verified by walking the cycle — the work blow-up the decomposition
/// eliminates.  Intended for small arrays and complexity demonstrations.
template <typename T>
void cycle_following_transpose_limited(T* a, std::uint64_t m,
                                       std::uint64_t n) {
  inplace::detail::checked_extent(a, m, n);
  const std::uint64_t total = m * n;
  if (total < 2 || m == 1 || n == 1) {
    return;
  }
  const std::uint64_t wrap = total - 1;
  for (std::uint64_t y = 1; y < wrap; ++y) {
    // Leader check: walk the cycle; abandon if any member is smaller.
    bool leader = true;
    for (std::uint64_t l = y * n % wrap; l != y; l = l * n % wrap) {
      if (l < y) {
        leader = false;
        break;
      }
    }
    if (!leader) {
      continue;
    }
    const T saved = a[y];
    std::uint64_t l = y;
    for (;;) {
      const std::uint64_t src = l * n % wrap;
      if (src == y) {
        a[l] = saved;
        break;
      }
      a[l] = a[src];
      l = src;
    }
  }
}

}  // namespace inplace::baselines
