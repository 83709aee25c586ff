#pragma once
// Plan-reusing executor for general in-place permutations: `permuter<T>`
// adopts a perm_plan (core/perm_plan.hpp) and owns whatever scratch the
// classified executor needs, so repeated applications of one permutation
// pay no per-call setup — the arena transpose_context caches for
// permute() calls, exactly like transposer<T> for the 2-D paths.
//
// Executors by classification:
//
//   rotation      gcd-juggling on the Section 4.6 coarse-rotation pass
//                 (one g-element sub-row buffer, g = gcd(n, k)), falling
//                 back to the O(1)-scratch 3-reversal form for small or
//                 OOM-demoted groups
//   bit_reversal  COBRA cache-blocked pairing (Knauth et al.): blocks of
//                 2^q x 2^q contiguous W-element sub-rows swap through a
//                 tile pair, with the per-row scatter expressed as the
//                 kernel tier's indexed gather
//   transpose2d   delegates to transposer<T> on the (rows x cols) C2R
//                 factorization — the strength-reduced Eq. 24/26 engines
//                 do the work and emit their own plan record alongside
//                 the perm record (the documented two-record contract)
//   generic       memoized cycle-leader scan through the cycle walker
//                 (core/cycle_walker.hpp): its visited-scratch ladder
//                 (byte map -> bitset -> O(1) leader-min) demotes only on
//                 std::bad_alloc, and a warm arena replays its memo only
//                 for the exact pi it was discovered from; the leader-min
//                 rung keeps no memo and rediscovers on every call
//
// Failure semantics match the 2-D executors: every path lowers to stages
// (reversals, the juggling pass, COBRA block pairs, the naive sweep,
// cycles) that run through the executor's one stage loop (run_passes),
// with "perm.exec.stage" before each.  A stage's inverse is the same
// body in the opposite direction — an involution, the opposite rotation
// or the opposite cycle walk — so a throw at a stage boundary rolls the
// finished stages back and the caller's buffer leaves this frame
// restored-or-untouched.  The transpose2d delegate is a transposer run,
// which restores itself.
//
// Not thread-safe: one permuter instance must not execute on two threads
// at once (tiles, visited maps and the leader memo are exclusive to one
// execution).  transpose_context hands out distinct instances.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/executor.hpp"
#include "core/perm_plan.hpp"
#include "core/rotate.hpp"
#include "util/aligned.hpp"

namespace inplace {

/// Smallest gcd(n, k) worth the juggling pass: below this the sub-rows
/// are too narrow to amortize the strided cycle walk and the 3-reversal
/// sweep's perfect locality wins.
inline constexpr std::uint64_t perm_juggling_min_group = 4;

/// Cap on the juggling sub-row buffer (g elements): a group wider than
/// this stops being "a cache line or two" and the buffer stops being
/// incidental scratch.  Groups past the cap take the 3-reversal form.
inline constexpr std::size_t perm_juggling_max_group_bytes = 256 * 1024;

namespace detail {

/// The perm plan record of an execution.  Field reuse is documented in
/// DESIGN.md §16: m carries the permutation length (n = 1 keeps the
/// 2*m*n traffic model exact), block_width the COBRA tile width W or the
/// juggling group g, and the calibration slot — unused by the 2-D paths
/// — carries the classifier verdict.
template <typename T>
inline void note_perm_record(const perm_plan& plan, std::uint64_t block_width,
                             bool from_cache = false) {
  note_record<T>("perm", plan.inverse ? "scatter" : "gather", 1, from_cache,
                 plan.rung, [&](telemetry::plan_record& rec) {
                   rec.m = plan.n;
                   rec.n = 1;
                   rec.block_width = block_width;
                   rec.kernel_tier = kernels::tier_name(plan.ktier);
                   rec.calibration = perm_kind_name(plan.kind);
                 });
}

/// A permuter's stages as a stage list for run_passes: stage k is
/// body(k, dir, tuned), with direction::c2r applying it as planned and
/// r2c undoing it.  "perm.exec.stage" fires before every stage live(k)
/// holds; the others are empty.  Stages open no span of their own: the
/// call's total span covers them.
template <typename Body, typename Live>
struct perm_stages {
  std::size_t count;
  Body body;
  Live live;

  [[nodiscard]] std::size_t size() const { return count; }
  void run(std::size_t k, direction dir, bool tuned) { body(k, dir, tuned); }
  void boundary(std::size_t k) const {
    if (k < count && live(k)) {
      INPLACE_FAILPOINT("perm.exec.stage");
    }
  }
};

}  // namespace detail

/// Reusable in-place permutation executor for one fixed plan.
template <typename T>
class permuter {
 public:
  /// Adopts an already-classified plan and acquires executor scratch.
  /// `data` is consulted only for the transpose2d delegate's plan
  /// validation (make_directed_plan); the permuter itself stores no
  /// pointer.  Acquisition walks a per-kind OOM ladder: std::bad_alloc
  /// demotes to the next rung (recorded in plan().rung) instead of
  /// failing, and any other exception — including injected faults from
  /// the "perm.exec.alloc" failpoint — propagates with nothing built.
  permuter(const perm_plan& plan, const options& opts, const void* data)
      : plan_(plan) {
    // inplace-lint: allow-block(raw-alloc): acquisition funnel — every
    // executor scratch allocation happens here, once per plan, inside
    // the documented bad_alloc demotion ladder (DESIGN.md §16)
    switch (plan_.kind) {
      case perm_kind::identity:
        break;
      case perm_kind::rotation: {
        const std::uint64_t g = std::gcd(plan_.n, plan_.rot_k);
        if (g >= perm_juggling_min_group &&
            g * sizeof(T) <= perm_juggling_max_group_bytes) {
          try {
            INPLACE_FAILPOINT("perm.exec.alloc");
            subrow_.resize(g);
          } catch (const std::bad_alloc&) {
            subrow_ = std::vector<T>();
            plan_.rung = scratch_rung::cycle_follow;
          }
        }
        break;
      }
      case perm_kind::bit_reversal: {
        if (plan_.cobra_q >= 2) {
          const std::uint64_t W = std::uint64_t{1} << plan_.cobra_q;
          try {
            INPLACE_FAILPOINT("perm.exec.alloc");
            tiles_.resize(2 * W * W);
            revq_.resize(W);
            gidx_.resize(W);
            for (std::uint64_t c = 0; c < W; ++c) {
              revq_[c] = detail::perm_bitrev(c, plan_.cobra_q);
            }
          } catch (const std::bad_alloc&) {
            tiles_ = std::vector<T>();
            revq_ = std::vector<std::uint64_t>();
            gidx_ = std::vector<std::uint64_t>();
            plan_.cobra_q = 0;  // the naive pair-swap loop needs nothing
            plan_.rung = scratch_rung::cycle_follow;
          }
        }
        break;
      }
      case perm_kind::transpose2d: {
        // transposer's constructor owns its own demotion ladder (and its
        // own failpoints); a bad_alloc never escapes it.  The failpoint
        // here covers the perm-level contract: an injected fault before
        // the delegate exists must leave nothing constructed.
        INPLACE_FAILPOINT("perm.exec.alloc");
        const direction dir =
            plan_.inverse ? direction::r2c : direction::c2r;
        inner_.emplace(make_directed_plan(data, plan_.t2d_rows,
                                          plan_.t2d_cols, dir, opts,
                                          sizeof(T)));
        break;
      }
      case perm_kind::generic: {
        if (plan_.n <= 1) {
          break;
        }
        // The walker's funnel: byte map, then bitset, then the leader-min
        // scan (O(n * cycle) time, O(1) auxiliary space, Dudek et al.'s
        // regime).  The memo's key — the pi its leaders belong to — lives
        // and dies with the memoizing rungs; the leader-min rung keeps no
        // memo and rediscovers from the pi of each call.
        plan_.rung = detail::acquire_visited(visited_, plan_.n, [this] {
          INPLACE_FAILPOINT("perm.exec.alloc");
          memo_pi_.resize(static_cast<std::size_t>(plan_.n));
        });
        if (plan_.rung == scratch_rung::cycle_follow) {
          memo_pi_ = util::aligned_vector<std::uint64_t>();
        }
        break;
      }
    }
    // inplace-lint: end-block
  }

  [[nodiscard]] const perm_plan& plan() const { return plan_; }

  /// True when scratch acquisition landed below scratch_rung::full on
  /// any layer (this executor or the transpose2d delegate).  Part of the
  /// arena interface transpose_context::run_cached consumes.
  [[nodiscard]] bool degraded() const {
    return plan_.rung != scratch_rung::full ||
           (inner_.has_value() && inner_->degraded());
  }

  /// Approximate bytes retained by this executor's cached state.
  [[nodiscard]] std::size_t cached_bytes() const {
    std::size_t total = visited_.bytes();
    total += (revq_.capacity() + gidx_.capacity() + memo_.starts.capacity() +
              memo_pi_.capacity()) *
             sizeof(std::uint64_t);
    total += (tiles_.capacity() + subrow_.capacity()) * sizeof(T);
    if (inner_.has_value()) {
      total += inner_->cached_bytes();
    }
    return total;
  }

  /// Applies the planned permutation to `data` in place.  `pi` must be
  /// the permutation the plan was built from (same length and content —
  /// checked mode re-fingerprints it, and a generic executor that has
  /// memoized its cycles compares pi with the memoized one entry by
  /// entry, throwing inplace::error with `data` untouched on a
  /// mismatch); `from_cache` is the telemetry provenance flag
  /// transpose_context sets on arena reuse.
  template <typename I>
  void execute(T* data, std::span<const I> pi, bool from_cache) {
    static_assert(std::is_integral_v<I>,
                  "permutation indices are integers");
    if (pi.size() != plan_.n) {
      throw error("inplace: permutation length " +
                  std::to_string(pi.size()) +
                  " does not match the planned length " +
                  std::to_string(plan_.n));
    }
    if (plan_.n <= 1 || plan_.kind == perm_kind::identity) {
      // Degenerate and identity runs are still executions: record them
      // so bench JSON does not silently undercount (the 2-D contract).
      detail::note_perm_record<T>(plan_, 0, from_cache);
      const telemetry::span span_total{telemetry::stage::total,
                                       2 * plan_.n * sizeof(T), 0};
      return;
    }
    INPLACE_REQUIRE(data != nullptr, "permuter invoked with null data");
    // Fires before the plan record and before any element moves: an
    // injected entry fault must leave the buffer untouched.
    INPLACE_FAILPOINT("perm.exec.begin");
#if INPLACE_CHECKS_ENABLED
    {
      detail::perm_fnv f;
      for (std::uint64_t i = 0; i < plan_.n; ++i) {
        f.feed(static_cast<std::uint64_t>(pi[static_cast<std::size_t>(i)]),
               i);
      }
      INPLACE_REQUIRE(f.final_lo() == plan_.fingerprint_lo &&
                          f.final_hi() == plan_.fingerprint_hi,
                      "permutation content does not match the plan's "
                      "fingerprint — this plan was built from a "
                      "different pi");
    }
#endif
    detail::note_perm_record<T>(plan_, block_width_hint(), from_cache);
    const telemetry::span span_total{[&] {
      return telemetry::span_spec{telemetry::stage::total,
                                  2 * plan_.n * sizeof(T), cached_bytes()};
    }};
    switch (plan_.kind) {
      case perm_kind::identity:
        return;  // handled above
      case perm_kind::rotation:
        run_rotation(data);
        return;
      case perm_kind::bit_reversal:
        run_bit_reversal(data);
        return;
      case perm_kind::transpose2d:
        // The delegate emits its own (engine, shape) plan record next to
        // the perm record above, runs with its own stage rollback, and
        // restores on throw — the perm-level contract holds transitively.
        inner_->execute(data, from_cache);
        return;
      case perm_kind::generic:
        run_generic(data, pi);
        return;
    }
  }

 private:
  /// The block_width slot of the plan record: COBRA tile width W,
  /// juggling group g, 0 for the unblocked paths.
  [[nodiscard]] std::uint64_t block_width_hint() const {
    if (plan_.kind == perm_kind::bit_reversal && plan_.cobra_q >= 2) {
      return std::uint64_t{1} << plan_.cobra_q;
    }
    if (plan_.kind == perm_kind::rotation) {
      return subrow_.size();
    }
    return 0;
  }

  /// Runs `count` stages, every one live unless `live` says otherwise,
  /// through the one stage loop.
  template <typename Body>
  static void run_stages(std::size_t count, Body body) {
    run_stages(count, std::move(body), [](std::size_t) { return true; });
  }
  template <typename Body, typename Live>
  static void run_stages(std::size_t count, Body body, Live live) {
    detail::perm_stages<Body, Live> stages{count, std::move(body),
                                           std::move(live)};
    detail::run_passes(stages, direction::c2r);
  }

  // --- rotation --------------------------------------------------------

  void run_rotation(T* data) {
    const std::uint64_t n = plan_.n;
    // The classifier stores the gather offset k; the inverse (scatter)
    // rotation by k is the gather rotation by n - k.
    const std::uint64_t k_eff =
        plan_.inverse ? (n - plan_.rot_k) % n : plan_.rot_k;
    if (k_eff == 0) {
      return;
    }
    if (!subrow_.empty()) {
      // Juggling pass, one stage: view the n-vector as an (n/g) x g
      // matrix of g-element sub-rows.  g = gcd(n, k) divides both n and
      // k_eff (gcd(n, n-k) = gcd(n, k)), so rotating rows by k_eff / g is
      // exactly the element rotation by k_eff — and gcd(n/g, k_eff/g) = 1
      // makes it a single cycle of whole sub-rows.  Its inverse rotates
      // the rows back.
      const auto g = static_cast<std::uint64_t>(subrow_.size());
      const std::uint64_t rows = n / g;
      const kernels::kernel_set& ks = kernels::set_for(plan_.ktier);
      run_stages(1, [&](std::size_t, direction dir, bool tuned) {
        detail::coarse_rotate_group(
            data, rows, g, 0, g,
            dir == direction::c2r ? k_eff / g : rows - k_eff / g,
            subrow_.data(), tuned ? &ks : nullptr, false);
      });
      return;
    }
    // 3-reversal left rotation (gather by k_eff): three involutions.
    const std::uint64_t from[3] = {0, k_eff, 0};
    const std::uint64_t to[3] = {k_eff, n, n};
    run_stages(3, [&](std::size_t k, direction, bool) {
      std::reverse(data + from[k], data + to[k]);
    });
  }

  // --- bit reversal (COBRA) --------------------------------------------

  void run_bit_reversal(T* data) {
    const std::uint64_t w = plan_.log2n;
    if (plan_.cobra_q < 2) {
      // Naive involution sweep: one stage, no scratch.
      run_stages(1, [&](std::size_t, direction, bool) {
        for (std::uint64_t i = 0; i < plan_.n; ++i) {
          const std::uint64_t j = detail::perm_bitrev(i, w);
          if (j > i) {
            std::swap(data[i], data[j]);
          }
        }
      });
      return;
    }
    // Stage b exchanges the block pair (b, rev_mid(b)), an involution on
    // its two blocks; each pair runs as the stage of its smaller block.
    const kernels::kernel_set& ks = kernels::set_for(plan_.ktier);
    const std::uint64_t mid = w - 2 * plan_.cobra_q;
    const auto first_of_pair = [mid](std::size_t b) {
      return detail::perm_bitrev(b, mid) >= b;
    };
    run_stages(
        std::size_t{1} << mid,
        [&](std::size_t b, direction, bool tuned) {
          if (first_of_pair(b)) {
            apply_cobra_group(data, b, detail::perm_bitrev(b, mid),
                              tuned ? &ks : nullptr);
          }
        },
        first_of_pair);
  }

  /// One COBRA block-pair exchange.  Decompose the address i into
  /// (a << (w-q)) | (b << q) | c with q-bit a and c; bitrev_w maps
  /// (a, b, c) -> (rev_q(c), rev_mid(b), rev_q(a)).  For the pair
  /// (b, br = rev_mid(b)) every source lies in blocks {b, br}, so two
  /// W x W tiles of contiguous W-element rows cover the exchange; the
  /// destination row (a, *) reads tile offsets rev_q(c)*W + rev_q(a) —
  /// an indexed gather with a per-`a` constant index vector.  The pair
  /// operation is an involution on its two blocks (bitrev is), so it is
  /// its own inverse.
  void apply_cobra_group(T* data, std::uint64_t b, std::uint64_t br,
                         const kernels::kernel_set* ks) {
    const std::uint64_t q = plan_.cobra_q;
    const std::uint64_t w = plan_.log2n;
    const std::uint64_t W = std::uint64_t{1} << q;
    const auto row_at = [&](std::uint64_t a, std::uint64_t blk) {
      return data + ((a << (w - q)) | (blk << q));
    };
    T* t1 = tiles_.data();      // block b
    T* t2 = tiles_.data() + W * W;  // block br
    for (std::uint64_t a = 0; a < W; ++a) {
      detail::copy_back(t1 + a * W, row_at(a, b), W, ks, false);
    }
    if (br != b) {
      for (std::uint64_t a = 0; a < W; ++a) {
        detail::copy_back(t2 + a * W, row_at(a, br), W, ks, false);
      }
    }
    const T* src_for_b = br != b ? t2 : t1;  // mid field rev_mid(b) = br
    for (std::uint64_t a = 0; a < W; ++a) {
      const std::uint64_t ra = revq_[a];
      for (std::uint64_t c = 0; c < W; ++c) {
        gidx_[c] = revq_[c] * W + ra;
      }
      store_gathered(row_at(a, b), src_for_b, W, ks);
      if (br != b) {
        store_gathered(row_at(a, br), t1, W, ks);
      }
    }
  }

  /// row[c] = src[gidx_[c]] for W lanes, through the tier's indexed
  /// gather when the element width has lanes (row and tile are disjoint,
  /// satisfying the kernel aliasing contract).
  void store_gathered(T* row, const T* src, std::uint64_t W,
                      const kernels::kernel_set* ks) {
    if constexpr (std::is_trivially_copyable_v<T> &&
                  kernels::has_gather_lanes<T>) {
      if (ks != nullptr) {
        kernels::gather_index(*ks, row, src, gidx_.data(),
                              static_cast<std::size_t>(W), false);
        return;
      }
    }
    for (std::uint64_t c = 0; c < W; ++c) {
      row[c] = src[gidx_[c]];
    }
  }

  // --- generic cycle-leader --------------------------------------------

  /// The walker's external-map path, one stage per cycle.  Discovery
  /// rejects a non-bijection before anything moves.  A stage moves its
  /// cycle as planned (gather, or scatter for an inverse plan); its
  /// inverse walks the cycle the opposite way.  On the memoizing rungs
  /// the leaders are discovered once and replayed on later calls, after
  /// proving pi is the permutation they were discovered from — so the
  /// warm replay walks as internal math, without the per-hop bound.  The
  /// leader-min rung keeps no memo: a validating discovery sweep counts
  /// the cycles, then each stage moves the next leader the scan finds.
  template <typename I>
  void run_generic(T* data, std::span<const I> pi) {
    const std::uint64_t n = plan_.n;
    const auto idx = [pi](std::uint64_t i) {
      return static_cast<std::uint64_t>(pi[static_cast<std::size_t>(i)]);
    };
    detail::element_mover<T> mv(data);
    const auto move = [&](std::uint64_t y, direction dir, bool trusted) {
      const bool scatter = plan_.inverse == (dir == direction::c2r);
      if (trusted) {
        detail::move_cycle<detail::walk_check::internal>(mv, idx, y, n,
                                                         scatter);
      } else {
        detail::move_cycle<detail::walk_check::external>(mv, idx, y, n,
                                                         scatter);
      }
    };
    if (plan_.rung == scratch_rung::cycle_follow) {
      std::size_t cycles = 0;
      detail::discover_cycles<detail::walk_check::external>(
          n, idx, visited_, [&cycles](std::uint64_t) { ++cycles; });
      // Cycles are disjoint, so rollback may undo the first `done`
      // leaders in discovery order: the scan restarts when the direction
      // flips.
      std::uint64_t next = 0;
      direction scan = direction::c2r;
      run_stages(cycles, [&](std::size_t, direction dir, bool) {
        if (dir != scan) {
          scan = dir;
          next = 0;
        }
        const std::uint64_t y = detail::next_leader(n, idx, next);
        next = y + 1;
        move(y, dir, false);
      });
      return;
    }
    const bool warm = memo_.ready;
    if (warm) {
      // Exact match, not a hash: a branch-free sweep the compiler
      // vectorizes, one pass over pi before anything moves.
      std::uint64_t diff = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        diff |= memo_pi_[static_cast<std::size_t>(i)] ^ idx(i);
      }
      if (diff != 0) {
        throw error(
            "inplace: permutation differs from the one this executor "
            "memoized its cycles for");
      }
    } else {
      std::copy(pi.begin(), pi.end(), memo_pi_.begin());
    }
    const std::vector<std::uint64_t>& leaders =
        detail::discover_or_replay<detail::walk_check::external>(
            memo_, plan_.fingerprint_lo, n, idx, visited_);
    run_stages(leaders.size(), [&](std::size_t k, direction dir, bool tuned) {
      move(leaders[k], dir, warm && tuned);
    });
  }

  perm_plan plan_;

  // rotation: juggling sub-row buffer (g elements; empty = 3-reversal).
  std::vector<T> subrow_;

  // bit_reversal: COBRA tile pair (2 * W * W), the q-bit reversal table
  // and the per-`a` gather index vector.
  std::vector<T> tiles_;
  std::vector<std::uint64_t> revq_;
  std::vector<std::uint64_t> gidx_;

  // transpose2d: the delegated 2-D executor.
  std::optional<transposer<T>> inner_;

  // generic: the visited scratch (per the rung), the memoized cycle
  // leaders (the stage list) and the pi they belong to (both empty on
  // the leader-min rung).
  detail::visited_map visited_;
  detail::cycle_memo memo_;
  util::aligned_vector<std::uint64_t> memo_pi_;
};

}  // namespace inplace
