#pragma once
// Algorithm 1 of the paper, verbatim: naive per-column gathers and per-row
// scatters through a max(m, n)-element temporary.  This engine exists as
// the executable specification the optimized engines are tested against,
// and it carries the instrumentation that checks Theorem 6's "each element
// is read and written at most 6 times" bound.
//
// Each pass is factored into a standalone helper, and each helper's
// inverse is the matching pass of the opposite direction.  The executor
// (core/executor.hpp) runs the helpers as the reference engine's pass
// list and replays the inverses when an execution throws at a pass
// boundary; c2r_reference/r2c_reference below compose them directly, as
// the specification the tests count element touches on.

#include <cstdint>

#include "core/equations.hpp"
#include "core/permute.hpp"

namespace inplace::detail {

/// Array-element touch counts (scratch traffic excluded, matching the
/// paper's accounting in Theorem 6).
struct touch_counter {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// Pre-rotation (Eq. 23): column j rotates up by prerotate_offset(j).
/// Inverse of reference_prerotate_inv.
template <typename T, typename Math>
void reference_prerotate(T* a, const Math& mm, workspace<T>& ws) {
  T* tmp = ws.line.data();
  for (std::uint64_t j = 0; j < mm.n; ++j) {
    const std::uint64_t k = mm.prerotate_offset(j);
    column_gather_inplace(a, mm.m, mm.n, j, tmp, [&](std::uint64_t i) {
      std::uint64_t s = i + k;
      return s >= mm.m ? s - mm.m : s;
    });
  }
}

/// Inverse pre-rotation (Eq. 36).  Inverse of reference_prerotate.
template <typename T, typename Math>
void reference_prerotate_inv(T* a, const Math& mm, workspace<T>& ws) {
  T* tmp = ws.line.data();
  for (std::uint64_t j = 0; j < mm.n; ++j) {
    const std::uint64_t k = mm.prerotate_inv_offset(j);
    column_gather_inplace(a, mm.m, mm.n, j, tmp, [&](std::uint64_t i) {
      std::uint64_t s = i + k;
      return s >= mm.m ? s - mm.m : s;
    });
  }
}

/// Row shuffle, scatter per Eq. 24.  Inverse of reference_row_gather.
template <typename T, typename Math>
void reference_row_scatter(T* a, const Math& mm, workspace<T>& ws) {
  T* tmp = ws.line.data();
  for (std::uint64_t i = 0; i < mm.m; ++i) {
    row_scatter_inplace(a + i * mm.n, mm.n, tmp,
                        [&](std::uint64_t j) { return mm.d_prime(i, j); });
  }
}

/// Row shuffle, gather form through d' (Section 4.3) — the exact inverse
/// of reference_row_scatter on every row.
template <typename T, typename Math>
void reference_row_gather(T* a, const Math& mm, workspace<T>& ws) {
  T* tmp = ws.line.data();
  for (std::uint64_t i = 0; i < mm.m; ++i) {
    row_gather_inplace(a + i * mm.n, mm.n, tmp,
                       [&](std::uint64_t j) { return mm.d_prime(i, j); });
  }
}

/// Column shuffle, gather per Eq. 26.  Inverse of
/// reference_col_shuffle_inv.
template <typename T, typename Math>
void reference_col_shuffle(T* a, const Math& mm, workspace<T>& ws) {
  T* tmp = ws.line.data();
  for (std::uint64_t j = 0; j < mm.n; ++j) {
    column_gather_inplace(a, mm.m, mm.n, j, tmp, [&](std::uint64_t i) {
      return mm.s_prime(i, j);
    });
  }
}

/// Inverse column shuffle: the C2R column shuffle is the gather
/// composition p_j then q, so its inverse is the single gather
/// q^-1((i + p^-1_j) mod m) (Eqs. 34-35), one pass per column.
template <typename T, typename Math>
void reference_col_shuffle_inv(T* a, const Math& mm, workspace<T>& ws) {
  T* tmp = ws.line.data();
  for (std::uint64_t j = 0; j < mm.n; ++j) {
    const std::uint64_t k = mm.p_inv_offset(j);
    column_gather_inplace(a, mm.m, mm.n, j, tmp, [&](std::uint64_t i) {
      std::uint64_t s = i + k;
      if (s >= mm.m) {
        s -= mm.m;
      }
      return mm.q_inv(s);
    });
  }
}

/// In-place C2R transposition (Algorithm 1).  After the call, the buffer
/// holds the row-major linearization of the transpose (Theorem 1).
template <typename T, typename Math>
void c2r_reference(T* a, const Math& mm, workspace<T>& ws,
                   touch_counter* tc = nullptr) {
  // Step 1 — pre-rotation (Eq. 23), needed only when gcd(m, n) > 1.
  if (mm.needs_prerotate()) {
    reference_prerotate(a, mm, ws);
    if (tc) {
      tc->reads += mm.m * mm.n;
      tc->writes += mm.m * mm.n;
    }
  }
  // Step 2 — row shuffle, scatter per Eq. 24.
  reference_row_scatter(a, mm, ws);
  // Step 3 — column shuffle, gather per Eq. 26.
  reference_col_shuffle(a, mm, ws);
  if (tc) {
    tc->reads += 2 * mm.m * mm.n;
    tc->writes += 2 * mm.m * mm.n;
  }
}

/// Gather-based C2R variant (Section 5.1's CPU implementation uses the
/// fully gather-based form with d'^-1).
template <typename T, typename Math>
void c2r_reference_gather(T* a, const Math& mm, workspace<T>& ws) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  T* tmp = ws.line.data();
  if (mm.needs_prerotate()) {
    reference_prerotate(a, mm, ws);
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    row_gather_inplace(a + i * n, n, tmp, [&](std::uint64_t j) {
      return mm.d_prime_inv(i, j);
    });
  }
  reference_col_shuffle(a, mm, ws);
}

/// In-place R2C transposition: the inverse of C2R, i.e. the C2R steps
/// reversed with gathers/scatters interchanged (Section 4.3).
template <typename T, typename Math>
void r2c_reference(T* a, const Math& mm, workspace<T>& ws,
                   touch_counter* tc = nullptr) {
  // Step 1 — inverse column shuffle (Eqs. 34-35).
  reference_col_shuffle_inv(a, mm, ws);
  // Step 2 — row shuffle; the gather form uses d' directly (Section 4.3).
  reference_row_gather(a, mm, ws);
  // Step 3 — inverse pre-rotation (Eq. 36), when gcd(m, n) > 1.
  if (mm.needs_prerotate()) {
    reference_prerotate_inv(a, mm, ws);
    if (tc) {
      tc->reads += mm.m * mm.n;
      tc->writes += mm.m * mm.n;
    }
  }
  if (tc) {
    tc->reads += 2 * mm.m * mm.n;
    tc->writes += 2 * mm.m * mm.n;
  }
}

}  // namespace inplace::detail
