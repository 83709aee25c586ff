#pragma once
// The decomposed permutation equations of Sections 3-4 (Eqs. 22-36).
//
// All functions are written exactly as derived in the paper, templated on a
// division policy (fast_divmod, which every engine runs; plain_divmod, the
// hardware-division reference the tests and the ablation compare it to).  Index arithmetic is unsigned 64-bit throughout; every
// subtraction below is guarded by an addition that keeps the intermediate
// non-negative.
//
// Gather convention: a permutation P applied as a *gather* produces
// dst[k] = src[P(k)].  All rotations are expressed as gathers with an
// offset: rotating a length-m column by k means dst[i] = src[(i+k) mod m].

#include <cstdint>

#include "core/contracts.hpp"
#include "core/fastdiv.hpp"
#include "core/gcdmath.hpp"
#include "core/layout.hpp"

namespace inplace {

/// Precomputed constants and index equations for one (m, n) problem.
///
/// Divmod is the division policy (fast_divmod or plain_divmod).
template <typename Divmod = fast_divmod>
struct transpose_math {
  std::uint64_t m;       ///< rows
  std::uint64_t n;       ///< cols
  std::uint64_t c;       ///< gcd(m, n)
  std::uint64_t a;       ///< m / c
  std::uint64_t b;       ///< n / c
  std::uint64_t a_inv;   ///< mmi(a, b) — Eq. 31
  std::uint64_t b_inv;   ///< mmi(b, a) — Eq. 34
  Divmod by_m, by_n, by_a, by_b, by_c;

  /// Precondition: rows >= 1 and cols >= 1 (validated by transpose_plan).
  transpose_math(std::uint64_t rows, std::uint64_t cols)
      : m(rows), n(cols) {
    const gcd_triplet g = decompose_gcd(m, n);
    c = g.c;
    a = g.a;
    b = g.b;
    a_inv = mmi(a, b);
    b_inv = mmi(b, a);
    by_m = Divmod(m);
    by_n = Divmod(n);
    by_a = Divmod(a);
    by_b = Divmod(b);
    by_c = Divmod(c);
  }

  /// True when the pre-rotation step is required (Lemma 1: conflicts exist
  /// exactly when gcd(m, n) > 1).
  [[nodiscard]] bool needs_prerotate() const { return c > 1; }

  // --- C2R direction -----------------------------------------------------

  /// Eq. 23 — pre-rotation gather offset for column j: r_j(i) = (i + ⌊j/b⌋)
  /// mod m.  Returns ⌊j/b⌋, which is < c ≤ m, so no reduction is needed.
  [[nodiscard]] std::uint64_t prerotate_offset(std::uint64_t j) const {
    return by_b.div(j);
  }

  /// Eq. 24 — destination column of element j of (pre-rotated) row i:
  /// d′_i(j) = (((i + ⌊j/b⌋) mod m) + j·m) mod n.  Scatter form of the row
  /// shuffle.
  [[nodiscard]] std::uint64_t d_prime(std::uint64_t i,
                                      std::uint64_t j) const {
    return by_n.mod(by_m.mod(i + by_b.div(j)) + j * m);
  }

  /// The helper f(i, j) of Section 4.2 used to invert d′.
  [[nodiscard]] std::uint64_t f_helper(std::uint64_t i,
                                       std::uint64_t j) const {
    const std::uint64_t base = j + i * (n - 1);
    // Condition "i - (j mod c) + c <= m", rearranged to stay unsigned.
    return (i + c <= m + by_c.mod(j)) ? base : base + m;
  }

  /// Eq. 31 — gather form of the row shuffle:
  /// d′⁻¹_i(j) = (a⁻¹·⌊f/c⌋) mod b + (f mod c)·b.
  [[nodiscard]] std::uint64_t d_prime_inv(std::uint64_t i,
                                          std::uint64_t j) const {
    const auto [fq, fr] = by_c.divmod(f_helper(i, j));
    return by_b.mod(a_inv * by_b.mod(fq)) + fr * b;
  }

  /// Eq. 26 — column-shuffle gather: s′_j(i) = (j + i·n − ⌊i/a⌋) mod m.
  [[nodiscard]] std::uint64_t s_prime(std::uint64_t i,
                                      std::uint64_t j) const {
    return by_m.mod(j + i * n - by_a.div(i));
  }

  /// Eq. 32 — rotation component of the column shuffle: p_j rotates column
  /// j by j.  Returned reduced mod m for use as a gather offset.
  [[nodiscard]] std::uint64_t p_offset(std::uint64_t j) const {
    return by_m.mod(j);
  }

  /// Eq. 33 — static row permutation component of the column shuffle:
  /// q(i) = (i·n − ⌊i/a⌋) mod m.
  [[nodiscard]] std::uint64_t q(std::uint64_t i) const {
    return by_m.mod(i * n - by_a.div(i));
  }

  // --- R2C direction (inverses, Section 4.3) ------------------------------

  /// Eq. 34 — gather form of the inverse row permutation:
  /// q⁻¹(i) = (⌊(c−1+i)/c⌋·b⁻¹) mod a + ((c−1)·i mod c)·a.
  [[nodiscard]] std::uint64_t q_inv(std::uint64_t i) const {
    return by_a.mod(by_c.div(c - 1 + i) * b_inv) +
           by_c.mod((c - 1) * i) * a;
  }

  /// Eq. 35 — gather offset inverting p_j: p⁻¹_j rotates by (−j) mod m.
  [[nodiscard]] std::uint64_t p_inv_offset(std::uint64_t j) const {
    const std::uint64_t r = by_m.mod(j);
    return r == 0 ? 0 : m - r;
  }

  /// Eq. 36 — gather offset inverting the pre-rotation: (−⌊j/b⌋) mod m.
  [[nodiscard]] std::uint64_t prerotate_inv_offset(std::uint64_t j) const {
    const std::uint64_t r = by_b.div(j);  // < c <= m
    return r == 0 ? 0 : m - r;
  }
};

/// Incremental evaluator of d'_i(j) for j = 0, 1, ..., n-1 — Section 4.4's
/// strength reduction taken to its conclusion for the row shuffle: since
/// rows are traversed in j order, d'_i(j) = ((i + ⌊j/b⌋) mod m + j·m)
/// mod n advances by (m mod n) each step, plus a +1 correction every b
/// steps (or +(1-m) when the inner rotation wraps), leaving only adds and
/// conditional subtracts in the per-element loop.
class d_prime_stepper {
 public:
  /// Starts at j = 0 for row i.  Requires i < m, n >= 1.
  template <typename Divmod>
  d_prime_stepper(const transpose_math<Divmod>& mm, std::uint64_t i)
      : m_(mm.m),
        n_(mm.n),
        b_(mm.b),
        m_mod_n_(mm.m % mm.n),
        wrap_fix_((mm.n + 1 - mm.m % mm.n) % mm.n),
        u_(i),
        val_(i % mm.n) {
    INPLACE_REQUIRE(i < mm.m, "d_prime_stepper row index out of range");
    INPLACE_REQUIRE(mm.n >= 1, "d_prime_stepper requires n >= 1");
  }

  /// d'_i(j) for the current j.
  [[nodiscard]] std::uint64_t value() const { return val_; }

  /// ⌊j/b⌋ for the current j — the pre-rotation offset of column j
  /// (Eq. 23), maintained for free by the same counter.
  [[nodiscard]] std::uint64_t rotation() const { return rot_; }

  /// Steps j -> j + 1.
  void advance() {
    val_ += m_mod_n_;
    if (val_ >= n_) {
      val_ -= n_;
    }
    if (++jb_ == b_) {
      jb_ = 0;
      ++rot_;
      ++u_;
      if (u_ == m_) {
        u_ = 0;
        val_ += wrap_fix_;  // (1 - m) mod n
      } else {
        val_ += 1;
      }
      if (val_ >= n_) {
        val_ -= n_;
      }
    }
  }

 private:
  std::uint64_t m_, n_, b_;
  std::uint64_t m_mod_n_, wrap_fix_;
  std::uint64_t u_;          ///< (i + ⌊j/b⌋) mod m
  std::uint64_t val_;        ///< d'_i(j)
  std::uint64_t jb_ = 0;     ///< j mod b
  std::uint64_t rot_ = 0;    ///< ⌊j/b⌋
};

}  // namespace inplace
