#pragma once
// Exhaustive algebraic verification of the decomposition (permcheck core).
//
// The engines are only correct if, for the given (m, n), the row shuffle
// d'_i (Eq. 24) and its gather-form inverse d'^-1_i (Eq. 31) are mutually
// inverse bijections of [0, n), the column shuffle s'_j (Eq. 26) factors
// into the rotation p_j and static permutation q (Eqs. 32-33) with q^-1
// (Eq. 34) inverting q, and the three stages compose to the true
// transposition permutation l -> l*m mod (mn - 1).  This header proves all
// of that *by enumeration*, per shape, exercising exactly the headers the
// engines use (equations.hpp with its division policies, including the
// incremental d_prime_stepper) — independent of any engine, so an index
// bug cannot hide behind a compensating bug in engine code.
//
// For the skinny shapes it also proves the engine's parallel schedules and
// index tables: the segment split of q / q^-1 (check_segments), the
// fused row passes' per-residue gather tables (check_residue_tables), and
// the chunked form of the passes with its prefix spread (check_chunks).
//
// Fault injection (`fault`) deliberately plants one of the bug classes the
// verifier exists to catch (off-by-one wrap handling, a flipped inverse
// branch, a drifted static permutation, a mis-rounded reciprocal, a
// residue table looked up one row off, a chunk factorization without its
// row reversal).  The
// permcheck tool's --seed-bug mode and the unit tests use it to prove the
// harness fails loudly instead of vacuously passing.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cycle_walker.hpp"
#include "core/equations.hpp"
#include "core/errors.hpp"
#include "core/fastdiv.hpp"
#include "core/gcdmath.hpp"
#include "cpu/skinny.hpp"
#include "util/threads.hpp"

namespace inplace::verify {

/// Deliberately planted index bugs, one per bug class the verifier guards
/// against.  `none` verifies the real library code.
enum class fault : int {
  none = 0,
  row_shuffle_wrap,      ///< Eq. 24: wrap test uses > instead of >=
  inverse_branch,        ///< Eq. 31: f-helper branch condition off by one
  column_shuffle_drift,  ///< Eq. 33: q(i) drifted by +1
  fastdiv_magic,         ///< reciprocal computed without the +1 rounding
  residue_off_by_one,    ///< skinny row i gathers via residue (i+1) mod n
  chunk_reversal,        ///< skinny block transpose writes field x to run n-1-x
};

/// Outcome of a verification sweep.
struct report {
  std::uint64_t shapes = 0;    ///< (m, n) pairs fully verified
  std::uint64_t checks = 0;    ///< individual predicates evaluated
  std::uint64_t failures = 0;  ///< predicates that did not hold
  std::vector<std::string> messages;  ///< first few failure diagnostics

  [[nodiscard]] bool ok() const { return failures == 0; }

  void fail(std::string msg) {
    ++failures;
    if (messages.size() < 16) {
      messages.push_back(std::move(msg));
    }
  }

  void merge(const report& other) {
    shapes += other.shapes;
    checks += other.checks;
    failures += other.failures;
    for (const auto& msg : other.messages) {
      if (messages.size() >= 16) {
        break;
      }
      messages.push_back(msg);
    }
  }
};

/// transpose_math with one optional planted bug.  Derivation shadows the
/// faulty members; everything else is the real library code, so a sweep
/// with fault::none measures exactly what the engines compute.
template <typename Divmod>
struct faulty_math : transpose_math<Divmod> {
  using base = transpose_math<Divmod>;
  fault f;

  faulty_math(std::uint64_t rows, std::uint64_t cols, fault f_)
      : base(rows, cols), f(f_) {}

  [[nodiscard]] std::uint64_t d_prime(std::uint64_t i,
                                      std::uint64_t j) const {
    if (f == fault::row_shuffle_wrap) {
      std::uint64_t u = i + this->by_b.div(j);
      if (u > this->m) {  // BUG: misses u == m, the exact-wrap case
        u -= this->m;
      }
      return (u + j * this->m) % this->n;
    }
    return base::d_prime(i, j);
  }

  [[nodiscard]] std::uint64_t d_prime_inv(std::uint64_t i,
                                          std::uint64_t j) const {
    if (f == fault::inverse_branch) {
      const std::uint64_t fb = j + i * (this->n - 1);
      // BUG: strict < where Eq. 31's f-helper needs <=
      const std::uint64_t fh =
          (i + this->c < this->m + this->by_c.mod(j)) ? fb : fb + this->m;
      const auto [fq, fr] = this->by_c.divmod(fh);
      return this->by_b.mod(this->a_inv * this->by_b.mod(fq)) +
             fr * this->b;
    }
    return base::d_prime_inv(i, j);
  }

  [[nodiscard]] std::uint64_t q(std::uint64_t i) const {
    if (f == fault::column_shuffle_drift) {
      // BUG: q drifted by one row; s' no longer factors as p then q
      return this->by_m.mod(i * this->n - this->by_a.div(i) + 1);
    }
    return base::q(i);
  }
};

namespace detail {

[[nodiscard]] inline std::uint64_t mulhi64(std::uint64_t x, std::uint64_t y) {
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(x) * y) >> 64);
}

/// The fastdiv_magic fault: Lemire's reciprocal with the ceiling rounding
/// dropped (M = floor(2^64/d) instead of ceil).  Exact for some operands,
/// wrong for others — precisely the kind of bug an "agrees with / and %"
/// sweep must catch.
[[nodiscard]] inline std::uint64_t bad_magic_div(std::uint64_t d,
                                                 std::uint64_t x) {
  if (d == 1) {
    return x;
  }
  return mulhi64(~std::uint64_t{0} / d, x);
}

/// Generation-stamped scratch for the bijectivity bitmaps; reused across
/// shapes so the sweep never reallocates.
struct sweep_scratch {
  std::vector<std::uint64_t> stamp;
  std::uint64_t gen = 0;

  /// Starts a fresh coverage pass over `size` slots.
  std::uint64_t begin(std::uint64_t size) {
    if (stamp.size() < size) {
      stamp.resize(static_cast<std::size_t>(size), 0);
    }
    return ++gen;
  }
};

inline std::string shape_tag(std::uint64_t m, std::uint64_t n) {
  return "(m=" + std::to_string(m) + ", n=" + std::to_string(n) + ")";
}

}  // namespace detail

/// Verifies that fast_divmod agrees with hardware / and % for divisor d
/// across a small exhaustive range plus the boundary dividends that stress
/// the reciprocal (mn-1, the 32-bit edge where it falls back, 2^64-1).
inline void check_divmod_agreement(std::uint64_t d, std::uint64_t mn,
                                   fault f, report& rep) {
  const fast_divmod fd(d);
  const std::uint64_t boundaries[] = {
      mn > 0 ? mn - 1 : 0,
      mn,
      mn + 1,
      d > 0 ? d - 1 : 0,
      d,
      d + 1,
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      (std::uint64_t{1} << 32) + 1,
      ~std::uint64_t{0} - 1,
      ~std::uint64_t{0},
  };
  auto check_one = [&](std::uint64_t x) {
    const std::uint64_t q = x / d;
    const std::uint64_t r = x % d;
    const std::uint64_t fq =
        (f == fault::fastdiv_magic) ? detail::bad_magic_div(d, x)
                                    : fd.div(x);
    const auto [dq, dr] = fd.divmod(x);
    rep.checks += 4;
    if (fq != q || fd.mod(x) != r || dq != q || dr != r) {
      rep.fail("fastdiv: reciprocal for d=" + std::to_string(d) +
               " disagrees with hardware division at x=" +
               std::to_string(x));
      return false;
    }
    return true;
  };
  const std::uint64_t dense = std::min<std::uint64_t>(mn, 512);
  for (std::uint64_t x = 0; x <= dense; ++x) {
    if (!check_one(x)) {
      return;
    }
  }
  for (const std::uint64_t x : boundaries) {
    if (!check_one(x)) {
      return;
    }
  }
}

/// Exhaustively verifies the decomposition algebra for one (m, n):
///   1. per row i, d'_i is a bijection of [0, n), the incremental
///      d_prime_stepper reproduces it (and its fused ⌊j/b⌋ rotation term),
///      and d'^-1_i inverts it (Eqs. 23, 24, 31);
///   2. the column shuffle factors as s'_j(i) = (q(i) + p_j) mod m with q
///      a bijection inverted by q^-1, and the rotation offsets cancel
///      (Eqs. 26, 32-36);
///   3. the three stages compose, in scatter form, to the transposition
///      permutation l -> l*m mod (mn - 1) on the linearized array.
/// Returns false (and records diagnostics) on the first violated
/// predicate for this shape.
template <typename Math>
bool check_shape(const Math& mm, report& rep,
                 detail::sweep_scratch& scratch) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::string tag = detail::shape_tag(m, n);

  // --- 1. Row shuffle: bijectivity, stepper agreement, mutual inverse.
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t gen = scratch.begin(n);
    d_prime_stepper step(mm, i);
    for (std::uint64_t j = 0; j < n; ++j, step.advance()) {
      const std::uint64_t d = mm.d_prime(i, j);
      rep.checks += 5;
      if (d >= n) {
        rep.fail(tag + ": Eq. 24 d'_" + std::to_string(i) + "(" +
                 std::to_string(j) + ") = " + std::to_string(d) +
                 " is out of range");
        return false;
      }
      if (scratch.stamp[d] == gen) {
        rep.fail(tag + ": Eq. 24 row shuffle d'_" + std::to_string(i) +
                 " is not a bijection — slot " + std::to_string(d) +
                 " hit twice (second time at j=" + std::to_string(j) + ")");
        return false;
      }
      scratch.stamp[d] = gen;
      if (step.value() != d || step.rotation() != mm.prerotate_offset(j)) {
        rep.fail(tag + ": incremental d' evaluator disagrees with Eq. 24 "
                       "at (i=" +
                 std::to_string(i) + ", j=" + std::to_string(j) +
                 "): stepper " + std::to_string(step.value()) +
                 ", direct " + std::to_string(d));
        return false;
      }
      if (mm.d_prime_inv(i, d) != j) {
        rep.fail(tag + ": Eq. 31 does not invert Eq. 24 at (i=" +
                 std::to_string(i) + ", j=" + std::to_string(j) +
                 "): d'^-1(d'(j)) = " +
                 std::to_string(mm.d_prime_inv(i, d)));
        return false;
      }
    }
  }

  // --- 2. Column shuffle factoring and inverses.
  {
    const std::uint64_t gen = scratch.begin(m);
    for (std::uint64_t i = 0; i < m; ++i) {
      const std::uint64_t qi = mm.q(i);
      rep.checks += 3;
      if (qi >= m) {
        rep.fail(tag + ": Eq. 33 q(" + std::to_string(i) + ") = " +
                 std::to_string(qi) + " is out of range");
        return false;
      }
      if (scratch.stamp[qi] == gen) {
        rep.fail(tag + ": Eq. 33 static permutation q is not a bijection "
                       "— row " +
                 std::to_string(qi) + " hit twice (second time at i=" +
                 std::to_string(i) + ")");
        return false;
      }
      scratch.stamp[qi] = gen;
      if (mm.q_inv(qi) != i) {
        rep.fail(tag + ": Eq. 34 does not invert Eq. 33 at i=" +
                 std::to_string(i) + ": q^-1(q(i)) = " +
                 std::to_string(mm.q_inv(qi)));
        return false;
      }
    }
  }
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t p = mm.p_offset(j);
    const std::uint64_t pr = mm.prerotate_offset(j);
    rep.checks += 3;
    if ((p + mm.p_inv_offset(j)) % m != 0) {
      rep.fail(tag + ": Eq. 35 rotation offsets do not cancel at j=" +
               std::to_string(j));
      return false;
    }
    if ((pr + mm.prerotate_inv_offset(j)) % m != 0) {
      rep.fail(tag + ": Eq. 36 pre-rotation offsets do not cancel at j=" +
               std::to_string(j));
      return false;
    }
  }

  // --- 3. Column-shuffle factoring (full coverage) and the composition
  // to the transposition permutation, scatter form: element l = i*n + j
  // passes through the pre-rotation scatter (i - ⌊j/b⌋ mod m), the
  // row-shuffle scatter d' (Eq. 24) and the column-shuffle scatter
  // q^-1((row - col) mod m) — landing at l*m mod (mn - 1), with the last
  // element fixed.
  const std::uint64_t mn = m * n;
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t qi = mm.q(i);
    for (std::uint64_t j = 0; j < n; ++j) {
      rep.checks += 1;
      const std::uint64_t pj = mm.p_offset(j);
      if (mm.s_prime(i, j) != (qi + pj >= m ? qi + pj - m : qi + pj)) {
        rep.fail(tag + ": Eq. 26 does not factor as p then q (Eqs. 32-33) "
                       "at (i=" +
                 std::to_string(i) + ", j=" + std::to_string(j) + ")");
        return false;
      }
      const std::uint64_t rot = mm.prerotate_offset(j);
      const std::uint64_t i1 = i >= rot ? i - rot : i + m - rot;
      const std::uint64_t j2 = mm.d_prime(i1, j);
      const std::uint64_t diff = i1 >= j2 % m ? i1 - j2 % m
                                              : i1 + m - j2 % m;
      const std::uint64_t dst = mm.q_inv(diff) * n + j2;
      const std::uint64_t l = i * n + j;
      const std::uint64_t want =
          (l == mn - 1) ? mn - 1
                        : static_cast<std::uint64_t>(
                              (static_cast<__uint128_t>(l) * m) % (mn - 1));
      rep.checks += 1;
      if (dst != want) {
        rep.fail(tag + ": composed C2R scatter sends l=" +
                 std::to_string(l) + " to " + std::to_string(dst) +
                 ", but transposition (l*m mod mn-1) requires " +
                 std::to_string(want));
        return false;
      }
    }
  }

  // --- 4. The divisors the strength-reduced engines actually use.
  std::uint64_t divisors[] = {m, n, mm.a, mm.b, mm.c};
  std::sort(std::begin(divisors), std::end(divisors));
  const auto* end = std::unique(std::begin(divisors), std::end(divisors));
  for (const auto* d = std::begin(divisors); d != end; ++d) {
    if (*d >= 1) {
      const std::uint64_t before = rep.failures;
      check_divmod_agreement(
          *d, mn,
          // Only verify_options threads the fault through; a Math that is
          // faulty_math still runs the clean divmod sweep here.
          fault::none, rep);
      if (rep.failures != before) {
        return false;
      }
    }
  }

  ++rep.shapes;
  return true;
}

namespace detail {

/// A walker mover over slot labels (each slot starts holding its own
/// index) that records which item writes each slot and checks every
/// write, read and segment close against the gather f.
template <typename Math>
struct label_mover {
  const Math& mm;
  bool inverse;  ///< f = q^-1 instead of q
  std::vector<std::uint64_t>& label;
  std::vector<std::uint64_t>& writer;  ///< item + 1 that wrote the slot
  bool record;                         ///< first pass: fill `writer`
  std::uint64_t item = 0;
  std::uint64_t held = 0;
  std::string fault;

  [[nodiscard]] std::uint64_t f(std::uint64_t i) const {
    return inverse ? mm.q_inv(i) : mm.q(i);
  }
  void note(const std::string& what) {
    if (fault.empty()) {
      fault = what;
    }
  }
  void write(std::uint64_t dst, std::uint64_t value) {
    if (record) {
      if (writer[dst] != 0) {
        note("slot " + std::to_string(dst) + " written twice");
      }
      writer[dst] = item + 1;
    }
    label[dst] = value;
  }
  void save(std::uint64_t i) { held = label[i]; }
  void move(std::uint64_t dst, std::uint64_t src) {
    if (!record && writer[src] != item + 1) {
      note("segment " + std::to_string(item) + " reads slot " +
           std::to_string(src) + ", which another segment writes");
    }
    if (label[src] != src) {
      note("slot " + std::to_string(src) + " read after it was written");
    }
    write(dst, label[src]);
  }
  void restore(std::uint64_t i) {
    if (held != f(i)) {
      note("segment ending at slot " + std::to_string(i) +
           " closes on saved row " + std::to_string(held) +
           " instead of its source " + std::to_string(f(i)));
    }
    write(i, held);
  }
  void exchange(std::uint64_t /*i*/) { note("unexpected scatter walk"); }
  void prefetch(std::uint64_t /*i*/) const {}
  void finish() const {}
};

}  // namespace detail

/// Proves, for one skinny shape, that the segment split of q and q^-1 —
/// discovery capped at `seg` hops (cpu/skinny.hpp's skinny_permute_rows
/// with skinny_segment_hops) — is a correct parallel schedule: running
/// the whole cycles and the segments (each closed from a copy of its
/// successor's first row, taken before any item runs) writes every slot
/// of a nontrivial cycle exactly once with its gather source and no other
/// slot, no item reads a slot another item writes, each segment closes on
/// its successor's saved row, and the split count stays within
/// max_splits.  Runs the engine's own discovery and walks
/// (discover_or_replay, move_cycle, move_segment, next_segment) on slot
/// labels.  q must already be proven a bijection (check_shape).
template <typename Math>
bool check_segments(const Math& mm, std::uint64_t seg, report& rep) {
  const std::uint64_t m = mm.m;
  const std::string tag =
      detail::shape_tag(m, mm.n) + ", segments of " + std::to_string(seg);
  inplace::detail::visited_map visited;
  visited.allocate(m, scratch_rung::full);
  std::vector<std::uint64_t> label(m);
  std::vector<std::uint64_t> writer(m);
  for (const bool inverse : {false, true}) {
    const char* pass = inverse ? "q^-1" : "q";
    const auto f = [&](std::uint64_t i) {
      return inverse ? mm.q_inv(i) : mm.q(i);
    };
    inplace::detail::cycle_memo memo;
    const std::vector<std::uint64_t>& whole =
        inplace::detail::discover_or_replay(memo, 1, m, f, visited, seg);
    rep.checks += 1;
    if (memo.splits.size() > inplace::detail::max_splits(m, seg)) {
      rep.fail(tag + ": " + pass + " split into " +
               std::to_string(memo.splits.size()) +
               " segments, past the saved-row bound");
      return false;
    }
    std::fill(writer.begin(), writer.end(), 0);
    // Pass 1 records each slot's writer; pass 2 reruns and checks that
    // every item reads only slots it writes itself.
    for (const bool record : {true, false}) {
      for (std::uint64_t i = 0; i < m; ++i) {
        label[i] = i;
      }
      std::vector<std::uint64_t> saved;
      for (const std::uint64_t s : memo.splits) {
        saved.push_back(label[s]);
      }
      detail::label_mover<Math> mv{mm, inverse, label, writer, record, 0, 0,
                                   {}};
      // External walk checks: a segment that never reaches its successor
      // throws past its bound instead of looping.
      constexpr auto checked = inplace::detail::walk_check::external;
      try {
        for (std::uint64_t k = 0; k < whole.size() + memo.splits.size();
             ++k) {
          mv.item = k;
          if (k < whole.size()) {
            inplace::detail::move_cycle<checked>(mv, f, whole[k], m);
            continue;
          }
          const std::size_t s = k - whole.size();
          const std::size_t next = inplace::detail::next_segment(memo, s);
          mv.held = saved[next];
          inplace::detail::move_segment<checked>(mv, f, memo.splits[s],
                                                 memo.splits[next], seg);
        }
      } catch (const error&) {
        mv.note("item " + std::to_string(mv.item) +
                " ran past its hop bound without closing");
      }
      for (std::uint64_t i = 0; i < m && mv.fault.empty(); ++i) {
        rep.checks += 2;
        if (label[i] != f(i)) {
          mv.note("slot " + std::to_string(i) + " holds row " +
                  std::to_string(label[i]) + ", not its source " +
                  std::to_string(f(i)));
        } else if ((writer[i] != 0) != (f(i) != i)) {
          mv.note("slot " + std::to_string(i) +
                  (writer[i] != 0 ? " is fixed but written"
                                  : " is never written"));
        }
      }
      if (!mv.fault.empty()) {
        rep.fail(tag + ": " + pass + " " + mv.fault);
        return false;
      }
    }
  }
  return true;
}

/// Proves, for one skinny shape, the per-residue tables the fused row
/// passes gather through, as the engine fills them (cpu/skinny.hpp's
/// skinny_scatter_table G for C2R, skinny_gather_table H for R2C), with
/// w = c - 1:
///   1. every table row is a bijection on [0, n): G_r writes every slot
///      once, slot d'_r(j) taking column j from ⌊j/b⌋ rows down; H_r reads,
///      for each j, the slot of the C2R row ⌊j/b⌋ up (residue r - ⌊j/b⌋)
///      that G put column j in, so H_r inverts G column by column;
///   2. for every row i that reads no window — i + w < m (C2R), i >= w
///      (R2C) — with r = i mod n, G_r[d'_i(j)] = ⌊j/b⌋ n + j and
///      H_r[j] = (w - ⌊j/b⌋) n + d'_{i-⌊j/b⌋}(j), by Eq. 24 in closed
///      form (Eq. 23's ⌊j/b⌋ the row offset);
///   3. the no-window bound covers every row whose source wraps: i +
///      ⌊j/b⌋ >= m (C2R) or i < ⌊j/b⌋ (R2C) only on window rows.
/// With fault::residue_off_by_one row i is looked up at residue
/// (i + 1) mod n, as a mis-stepped residue in the pass would.
template <typename Math>
bool check_residue_tables(const Math& mm, fault f, report& rep) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t w = mm.c - 1;
  const std::uint64_t unset = ~std::uint64_t{0};
  const std::string tag = detail::shape_tag(m, n) + ", residue tables";
  std::vector<std::uint64_t> g(n * n, unset);
  std::vector<std::uint64_t> h(n * n, unset);
  inplace::detail::skinny_scatter_table(mm, g.data());
  inplace::detail::skinny_gather_table(mm, h.data());
  const auto fail = [&](const char* dir, std::uint64_t row,
                        const std::string& what) {
    rep.fail(tag + ": " + dir + " row " + std::to_string(row) + " " + what);
    return false;
  };

  // 1. G_r a bijection with Eq. 23's row offsets; H_r its inverse.
  std::vector<std::uint64_t> seen(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    std::fill(seen.begin(), seen.end(), 0);
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t v = g[r * n + k];
      rep.checks += 1;
      if (v == unset || seen[v % n]++ != 0 ||
          v / n != mm.prerotate_offset(v % n)) {
        return fail("C2R", r,
                    "is not a bijection on [0, n) with Eq. 23's row "
                    "offsets at slot " +
                        std::to_string(k));
      }
    }
  }
  for (std::uint64_t r = 0; r < n; ++r) {
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t v = h[r * n + j];
      const std::uint64_t rot = mm.prerotate_offset(j);
      rep.checks += 1;
      if (v == unset || v / n != w - rot ||
          g[((r + n - rot) % n) * n + v % n] != rot * n + j) {
        return fail("R2C", r,
                    "does not invert the C2R table at column " +
                        std::to_string(j));
      }
    }
  }

  // 2 and 3, row by row.
  for (const bool c2r : {true, false}) {
    const char* dir = c2r ? "C2R" : "R2C";
    for (std::uint64_t i = 0; i < m; ++i) {
      const bool window = c2r ? i + w >= m : i < w;
      const std::uint64_t r =
          (f == fault::residue_off_by_one ? i + 1 : i) % n;
      for (std::uint64_t j = 0; j < n; ++j) {
        const std::uint64_t rot = mm.prerotate_offset(j);
        rep.checks += 1;
        if (c2r ? i + rot >= m : i < rot) {
          if (!window) {
            return fail(dir, i,
                        "wraps at j=" + std::to_string(j) +
                            " but lies outside the (c-1)-row window");
          }
          continue;
        }
        if (window) {
          continue;
        }
        rep.checks += 1;
        const bool ok =
            c2r ? g[r * n + mm.d_prime(i, j)] == rot * n + j
                : h[r * n + j] == (w - rot) * n + mm.d_prime(i - rot, j);
        if (!ok) {
          return fail(dir, i,
                      "(residue " + std::to_string(r) +
                          ") disagrees with Eq. 24's d' at j=" +
                          std::to_string(j));
        }
      }
    }
  }
  return true;
}

/// Proves, for one skinny shape, the chunked form of the skinny passes
/// (cpu/skinny.hpp, DESIGN §17.1) for chunks of B = 1, 2, 3 rows wherever
/// n B <= m (the engine derives B from the element size, so small shapes
/// stand in for its page-sized chunks), with m' = n B ⌊m / (n B)⌋:
///   1. on the m' x n prefix, the per-block transpose (chunk_block_slot)
///      followed by the walk of the K x n chunk grid (chunk x K + Y takes
///      chunk Y n + x: chunk_grid_source, inverted by
///      chunk_grid_source_inv) sends structure i's field x to x m' + i,
///      out-of-place AoS -> SoA;
///   2. the engine's spread (chunk_spread) sends the prefix's n x m'
///      result and the s tail structures to the n x m result, and its
///      gather inverts it;
///   3. the engine's chunked C2R passes — the per-block transposes
///      (skinny_fused_scatter_as), the identity p (skinny_rotate_p_as),
///      chunk_permute — send slot labels to the out-of-place AoS -> SoA
///      transposition, and its R2C passes bring them back.
/// (2) and (3) run the engine's code on one slab and on three.  With
/// fault::chunk_reversal, (1) writes field x to run n - 1 - x.
template <typename Math>
bool check_chunks(const Math& mm, fault f, report& rep) {
  namespace ipd = inplace::detail;
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  using label = std::uint64_t;
  std::vector<label> a(m * n);
  const transpose_math<fast_divmod> full(m, n);
  for (std::uint64_t rows = 1; rows <= 3 && n * rows <= m; ++rows) {
    const ipd::chunk_layout cl = ipd::make_chunk_layout(m, n, rows);
    const std::uint64_t k = cl.chunks;
    const std::uint64_t mp = cl.prefix;
    const std::uint64_t bn = rows * n;
    const std::string tag = detail::shape_tag(m, n) + ", chunks of " +
                            std::to_string(rows) + " rows";
    const auto fail = [&](const std::string& what) {
      rep.fail(tag + ": " + what);
      return false;
    };

    // 1. Block transpose, then the chunk walk, on the prefix.
    for (std::uint64_t i = 0; i < mp; ++i) {
      const std::uint64_t y = i / bn;
      const std::uint64_t t = i % bn;
      for (std::uint64_t x = 0; x < n; ++x) {
        const std::uint64_t run = f == fault::chunk_reversal ? n - 1 - x : x;
        const std::uint64_t slot =
            y * bn * n + ipd::chunk_block_slot(n, rows, t, run);
        const std::uint64_t from = slot / bn;
        const std::uint64_t to = ipd::chunk_grid_source_inv(k, n, from);
        rep.checks += 3;
        if (slot / (bn * n) != y) {
          return fail("the block transpose moves structure " +
                      std::to_string(i) + "'s field " + std::to_string(x) +
                      " out of its block");
        }
        if (ipd::chunk_grid_source(k, n, to) != from) {
          return fail("the chunk grid walk does not invert at chunk " +
                      std::to_string(from));
        }
        if (to * bn + slot % bn != x * mp + i) {
          return fail("the block transpose and chunk walk put structure " +
                      std::to_string(i) + "'s field " + std::to_string(x) +
                      " at " + std::to_string(to * bn + slot % bn) +
                      ", not AoS -> SoA's " + std::to_string(x * mp + i));
        }
      }
    }

    for (const std::uint64_t slots : {1, 3}) {
      ipd::workspace<label> ws;
      ipd::reserve_skinny_as(ws, m, n, slots, cl);
      const std::uint64_t team = ipd::chunk_team(ws, m, n, cl);
      const std::uint64_t slabs = ipd::spread_team(ws, n, cl, team);
      const std::string on = ", " + std::to_string(slots) + " slot(s)";

      // 2. Spread and gather on their own.
      for (std::uint64_t l = 0; l < m * n; ++l) {
        a[l] = l;
      }
      ipd::chunk_spread(a.data(), m, n, cl, ws, slabs, /*c2r=*/true);
      for (std::uint64_t fld = 0; fld < n; ++fld) {
        for (std::uint64_t i = 0; i < m; ++i) {
          rep.checks += 1;
          const label want =
              i < mp ? fld * mp + i : mp * n + (i - mp) * n + fld;
          if (a[fld * m + i] != want) {
            return fail("the spread puts label " +
                        std::to_string(a[fld * m + i]) + " at field " +
                        std::to_string(fld) + ", row " + std::to_string(i) +
                        on);
          }
        }
      }
      ipd::chunk_spread(a.data(), m, n, cl, ws, slabs, /*c2r=*/false);
      for (std::uint64_t l = 0; l < m * n; ++l) {
        rep.checks += 1;
        if (a[l] != l) {
          return fail("the gather does not invert the spread at slot " +
                      std::to_string(l) + on);
        }
      }

      // 3. The chunked passes, C2R then R2C.
      ipd::no_block_transform block;
      ipd::skinny_fused_scatter_as(a.data(), full, cl, ws, nullptr, false,
                                   block);
      ipd::skinny_rotate_p_as(a.data(), full, cl, ws, nullptr, false);
      ipd::chunk_permute(a.data(), m, n, cl, ws, nullptr, nullptr, false,
                         true);
      for (std::uint64_t fld = 0; fld < n; ++fld) {
        for (std::uint64_t i = 0; i < m; ++i) {
          rep.checks += 1;
          if (a[fld * m + i] != i * n + fld) {
            return fail("the chunked C2R passes put label " +
                        std::to_string(a[fld * m + i]) + " at field " +
                        std::to_string(fld) + ", row " + std::to_string(i) +
                        ", not AoS -> SoA's " + std::to_string(i * n + fld) +
                        on);
          }
        }
      }
      ipd::chunk_permute(a.data(), m, n, cl, ws, nullptr, nullptr, false,
                         false);
      ipd::skinny_rotate_p_inv_as(a.data(), full, cl, ws, nullptr, false);
      ipd::skinny_fused_gather_as(a.data(), full, cl, ws, nullptr, false,
                                  block);
      for (std::uint64_t l = 0; l < m * n; ++l) {
        rep.checks += 1;
        if (a[l] != l) {
          return fail("the chunked R2C passes do not invert C2R at slot " +
                      std::to_string(l) + on);
        }
      }
    }
  }
  return true;
}

/// The skinny-engine proofs for a shape the skinny engine runs
/// (n <= skinny_col_limit, m > n) whose algebra check_shape already
/// proved (`proven`): check_segments over a few segment lengths, short
/// enough that the small shapes of a sweep split their cycles too,
/// check_residue_tables, and check_chunks.
template <typename Math>
void check_skinny(const Math& mm, bool proven, fault f, report& rep) {
  if (!proven || mm.n > skinny_col_limit || mm.m <= mm.n) {
    return;
  }
  for (const std::uint64_t seg : {1, 2, 3, 7}) {
    if (!check_segments(mm, seg, rep)) {
      return;
    }
  }
  if (check_residue_tables(mm, f, rep)) {
    check_chunks(mm, f, rep);
  }
}

/// Sweep configuration for run_sweep / the permcheck tool.
struct sweep_options {
  std::uint64_t min_extent = 2;
  std::uint64_t max_extent = 64;
  fault inject = fault::none;
  /// Called (from one thread at a time) with shapes completed so far.
  void (*progress)(std::uint64_t done, std::uint64_t total) = nullptr;
};

/// Verifies every (m, n) with min_extent <= m, n <= max_extent.
/// Parallelized over shapes with OpenMP when available.
inline report run_sweep(const sweep_options& opt) {
  report total;
  const std::uint64_t lo = std::max<std::uint64_t>(opt.min_extent, 2);
  const std::uint64_t hi = std::max<std::uint64_t>(opt.max_extent, lo);
  const std::uint64_t extents = hi - lo + 1;
  const auto pairs = static_cast<std::int64_t>(extents * extents);
  std::uint64_t done = 0;
  util::team_edges edges;
  edges.release();

#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    edges.acquire();
    report local;
    detail::sweep_scratch scratch;
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 16)
#endif
    for (std::int64_t k = 0; k < pairs; ++k) {
      const std::uint64_t m = lo + static_cast<std::uint64_t>(k) / extents;
      const std::uint64_t n = lo + static_cast<std::uint64_t>(k) % extents;
      const faulty_math<fast_divmod> mm(m, n, opt.inject);
      check_skinny(mm, check_shape(mm, local, scratch), opt.inject, local);
      if (opt.inject == fault::fastdiv_magic) {
        check_divmod_agreement(n, m * n, opt.inject, local);
      }
      if (opt.progress != nullptr && (k & 1023) == 0) {
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp critical(inplace_verify_progress)
#endif
        {
          done += 1024;
          opt.progress(std::min<std::uint64_t>(
                           done, static_cast<std::uint64_t>(pairs)),
                       static_cast<std::uint64_t>(pairs));
        }
      }
    }
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp critical(inplace_verify_merge)
#endif
    total.merge(local);
    edges.release();
  }
  edges.acquire();
  return total;
}

/// Convenience single-shape entry point (used by the unit tests).
inline report verify_shape(std::uint64_t m, std::uint64_t n,
                           fault inject = fault::none) {
  report rep;
  detail::sweep_scratch scratch;
  const faulty_math<fast_divmod> mm(m, n, inject);
  check_skinny(mm, check_shape(mm, rep, scratch), inject, rep);
  if (inject == fault::fastdiv_magic) {
    check_divmod_agreement(n, m * n, inject, rep);
  }
  return rep;
}

}  // namespace inplace::verify
