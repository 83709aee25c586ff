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
//   generic       memoized cycle-leader scan; the scratch ladder mirrors
//                 acquire_scratch's rungs (byte map -> bitset -> O(1)
//                 leader-min), demoting only on std::bad_alloc
//
// Failure semantics match the 2-D executors: every path tracks completed
// stages (reversals, COBRA block pairs, applied cycle leaders) and a
// throw at a stage boundary rolls the finished stages back in reverse
// order — each is an involution or has an explicit inverse walk — so the
// caller's buffer leaves this frame restored-or-untouched.  Mid-stage
// failures (possible only for throwing element types) follow the same
// "left at a stage boundary, never hidden" policy as the 2-D executor's
// rollback_passes.
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

/// Emits one telemetry plan record for a permutation execution, the
/// perm-engine analogue of note_plan_record.  Field reuse is documented
/// in DESIGN.md §16: m carries the permutation length (n = 1 keeps the
/// 2*m*n traffic model exact), block_width the COBRA tile width W or the
/// juggling group g, and the calibration slot — unused by the 2-D paths
/// — carries the classifier verdict.
template <typename T>
inline void note_perm_record([[maybe_unused]] const perm_plan& plan,
                             [[maybe_unused]] std::uint64_t block_width,
                             [[maybe_unused]] bool from_cache = false) {
#if INPLACE_TELEMETRY_ENABLED
  if (telemetry::current_sink() != nullptr) {
    const util::thread_probe probe = util::probe_thread_count(1);
    telemetry::plan_record rec;
    rec.engine = "perm";
    rec.direction = plan.inverse ? "scatter" : "gather";
    rec.m = plan.n;
    rec.n = 1;
    rec.block_width = block_width;
    rec.elem_size = sizeof(T);
    rec.strength_reduction = false;
    rec.kernel_tier = kernels::tier_name(plan.ktier);
    rec.threads_requested = probe.requested;
    rec.threads_active = probe.active;
    rec.threads_honored = probe.honored;
    rec.from_cache = from_cache;
    rec.rung = rung_name(plan.rung);
    rec.calibration = perm_kind_name(plan.kind);
    INPLACE_TELEMETRY_PLAN(rec);
  }
#endif
}

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
            subrow_.clear();
            subrow_.shrink_to_fit();
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
            tiles_.clear();
            tiles_.shrink_to_fit();
            revq_.clear();
            revq_.shrink_to_fit();
            gidx_.clear();
            gidx_.shrink_to_fit();
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
        try {
          INPLACE_FAILPOINT("perm.exec.alloc");
          visited_.resize(plan_.n);
          break;
        } catch (const std::bad_alloc&) {
          visited_.clear();
          visited_.shrink_to_fit();
        }
        try {
          INPLACE_FAILPOINT("perm.exec.alloc");
          bits_.resize((plan_.n + 63) / 64);
          plan_.rung = scratch_rung::reduced;
          break;
        } catch (const std::bad_alloc&) {
          bits_.clear();
          bits_.shrink_to_fit();
        }
        // Last rung: no visited structure at all — the leader-min scan
        // re-walks each cycle to test leadership (O(n * cycle) time,
        // O(1) auxiliary space, Dudek et al.'s regime).
        plan_.rung = scratch_rung::cycle_follow;
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
    std::size_t total = visited_.capacity();
    total += (bits_.capacity() + revq_.capacity() + gidx_.capacity() +
              leaders_.capacity()) *
             sizeof(std::uint64_t);
    total += (tiles_.capacity() + subrow_.capacity()) * sizeof(T);
    if (inner_.has_value()) {
      total += inner_->cached_bytes();
    }
    return total;
  }

  /// Applies the planned permutation to `data` in place.  `pi` must be
  /// the permutation the plan was built from (same length and content —
  /// checked mode re-fingerprints it); `from_cache` is the telemetry
  /// provenance flag transpose_context sets on arena reuse.
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
      INPLACE_TELEMETRY_SPAN(span_total, telemetry::stage::total,
                             2 * plan_.n * sizeof(T), 0);
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
    INPLACE_TELEMETRY_SPAN(span_total, telemetry::stage::total,
                           2 * plan_.n * sizeof(T), cached_bytes());
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
      // Juggling pass: view the n-vector as an (n/g) x g matrix of
      // g-element sub-rows.  g = gcd(n, k) divides both n and k_eff
      // (gcd(n, n-k) = gcd(n, k)), so rotating rows by k_eff / g is
      // exactly the element rotation by k_eff — and gcd(n/g, k_eff/g)
      // = 1 makes it a single cycle of whole sub-rows.
      const auto g = static_cast<std::uint64_t>(subrow_.size());
      const kernels::kernel_set& ks = kernels::set_for(plan_.ktier);
      INPLACE_FAILPOINT("perm.exec.stage");
      detail::coarse_rotate_group(data, n / g, g, 0, g, k_eff / g,
                                  subrow_.data(), &ks, false);
      return;
    }
    // 3-reversal left rotation (gather by k_eff): each stage is an
    // involution, so rollback replays the completed ones in reverse.
    std::size_t completed = 0;
    try {
      INPLACE_FAILPOINT("perm.exec.stage");
      std::reverse(data, data + k_eff);
      ++completed;
      INPLACE_FAILPOINT("perm.exec.stage");
      std::reverse(data + k_eff, data + n);
      ++completed;
      INPLACE_FAILPOINT("perm.exec.stage");
      std::reverse(data, data + n);
      ++completed;
    } catch (...) {
      rollback_rotation(data, k_eff, completed);
      throw;
    }
  }

  void rollback_rotation(T* data, std::uint64_t k_eff,
                         std::size_t completed) noexcept {
    try {
      if (completed >= 3) {
        std::reverse(data, data + plan_.n);
      }
      if (completed >= 2) {
        std::reverse(data + k_eff, data + plan_.n);
      }
      if (completed >= 1) {
        std::reverse(data, data + k_eff);
      }
    } catch (...) {
      // Swallowed, same policy as rollback_passes: the original
      // exception is the one the caller must see.
    }
  }

  // --- bit reversal (COBRA) --------------------------------------------

  void run_bit_reversal(T* data) {
    const std::uint64_t w = plan_.log2n;
    if (plan_.cobra_q < 2) {
      // Naive involution sweep: one stage, no scratch.  A fault at the
      // failpoint leaves the buffer untouched; a completed sweep is the
      // whole permutation.
      INPLACE_FAILPOINT("perm.exec.stage");
      for (std::uint64_t i = 0; i < plan_.n; ++i) {
        const std::uint64_t j = detail::perm_bitrev(i, w);
        if (j > i) {
          std::swap(data[i], data[j]);
        }
      }
      return;
    }
    const kernels::kernel_set& ks = kernels::set_for(plan_.ktier);
    const std::uint64_t mid = w - 2 * plan_.cobra_q;
    std::uint64_t completed = 0;
    bool in_flight = false;
    try {
      for (std::uint64_t b = 0; b < (std::uint64_t{1} << mid); ++b) {
        const std::uint64_t br = detail::perm_bitrev(b, mid);
        if (br < b) {
          continue;  // handled as the (br, b) pair
        }
        INPLACE_FAILPOINT("perm.exec.stage");
        apply_cobra_group(data, b, br, &ks, &in_flight);
        ++completed;
      }
    } catch (...) {
      rollback_bit_reversal(data, completed, in_flight);
      throw;
    }
  }

  /// One COBRA block-pair exchange.  Decompose the address i into
  /// (a << (w-q)) | (b << q) | c with q-bit a and c; bitrev_w maps
  /// (a, b, c) -> (rev_q(c), rev_mid(b), rev_q(a)).  For the pair
  /// (b, br = rev_mid(b)) every source lies in blocks {b, br}, so two
  /// W x W tiles of contiguous W-element rows cover the exchange; the
  /// destination row (a, *) reads tile offsets rev_q(c)*W + rev_q(a) —
  /// an indexed gather with a per-`a` constant index vector.  The pair
  /// operation is an involution on its two blocks (bitrev is), which is
  /// what the rollback below replays.
  void apply_cobra_group(T* data, std::uint64_t b, std::uint64_t br,
                         const kernels::kernel_set* ks, bool* in_flight) {
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
    if (in_flight != nullptr) {
      *in_flight = true;
    }
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
    if (in_flight != nullptr) {
      *in_flight = false;
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

  void rollback_bit_reversal(T* data, std::uint64_t completed,
                             bool in_flight) noexcept {
    if (in_flight) {
      // Mid-group: the pair is half-written and the involution replay
      // would scramble it further.  Documented "left at a stage
      // boundary" downgrade, same as a 2-D pass failing mid-pass.
      return;
    }
    try {
      // Replay the first `completed` pair exchanges (disjoint
      // involutions — order is irrelevant, the group walk is just the
      // cheapest enumeration).  Portable path: rollback must not depend
      // on the tier that ran the forward pass.
      const std::uint64_t mid = plan_.log2n - 2 * plan_.cobra_q;
      std::uint64_t seen = 0;
      for (std::uint64_t b = 0;
           b < (std::uint64_t{1} << mid) && seen < completed; ++b) {
        const std::uint64_t br = detail::perm_bitrev(b, mid);
        if (br < b) {
          continue;
        }
        apply_cobra_group(data, b, br, nullptr, nullptr);
        ++seen;
      }
    } catch (...) {
      // Swallowed: the original exception is the one the caller sees.
    }
  }

  // --- generic cycle-leader --------------------------------------------

  template <typename I>
  void run_generic(T* data, std::span<const I> pi) {
    std::size_t applied = 0;
    try {
      if (leaders_ready_) {
        // Warm path: the cycle structure is a function of pi alone,
        // which checked mode just re-fingerprinted — replay the memoized
        // leaders with no discovery walk at all.
        for (const std::uint64_t y : leaders_) {
          INPLACE_FAILPOINT("perm.exec.stage");
          apply_cycle(data, pi, y, plan_.inverse);
          ++applied;
        }
        return;
      }
      leaders_.clear();
      discover_and_apply(data, pi, applied);
      leaders_ready_ = true;
    } catch (...) {
      rollback_generic(data, pi, applied);
      if (!leaders_ready_) {
        // A partial memo must never be replayed as if complete.
        leaders_.clear();
      }
      throw;
    }
  }

  /// Cold path: discover cycle leaders (per the scratch rung) and apply
  /// each cycle as soon as its leadership is proven.  The leader is
  /// pushed onto the memo *before* its cycle moves and `applied` is
  /// bumped after, so leaders_[0, applied) is exactly the rollback set
  /// at every throw point.
  template <typename I>
  void discover_and_apply(T* data, std::span<const I> pi,
                          std::size_t& applied) {
    const std::uint64_t n = plan_.n;
    const auto idx = [pi](std::uint64_t i) {
      return static_cast<std::uint64_t>(pi[static_cast<std::size_t>(i)]);
    };
    const auto on_leader = [&](std::uint64_t y) {
      INPLACE_FAILPOINT("perm.exec.stage");
      // inplace-lint: allow-next(raw-alloc): leader memo append — bounded
      // by the cycle count (< n), amortized O(1), part of the arena the
      // context cache accounts via cached_bytes()
      leaders_.push_back(y);
      apply_cycle(data, pi, y, plan_.inverse);
      ++applied;
    };
    if (!visited_.empty()) {
      // Full rung: byte map.  std::fill, not assign — no reallocation.
      std::fill(visited_.begin(), visited_.end(),
                static_cast<unsigned char>(0));
      for (std::uint64_t y = 0; y < n; ++y) {
        if (visited_[y] != 0) {
          continue;
        }
        std::uint64_t len = 0;
        std::uint64_t i = y;
        do {
          visited_[i] = 1;
          i = idx(i);
          guard_walk(++len, n);
        } while (i != y);
        if (len > 1) {
          on_leader(y);
        }
      }
      return;
    }
    if (!bits_.empty()) {
      // Reduced rung: bitset, 1/8th the footprint.
      std::fill(bits_.begin(), bits_.end(), std::uint64_t{0});
      const auto test = [&](std::uint64_t i) {
        return (bits_[i >> 6] >> (i & 63)) & 1u;
      };
      const auto set = [&](std::uint64_t i) {
        bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
      };
      for (std::uint64_t y = 0; y < n; ++y) {
        if (test(y) != 0) {
          continue;
        }
        std::uint64_t len = 0;
        std::uint64_t i = y;
        do {
          set(i);
          i = idx(i);
          guard_walk(++len, n);
        } while (i != y);
        if (len > 1) {
          on_leader(y);
        }
      }
      return;
    }
    // cycle_follow rung: y leads iff no cycle member is smaller — each
    // candidate walks its cycle once to test leadership, trading time
    // for O(1) auxiliary space.
    for (std::uint64_t y = 0; y < n; ++y) {
      std::uint64_t i = idx(y);
      if (i == y) {
        continue;
      }
      bool leader = true;
      std::uint64_t len = 1;
      while (i != y) {
        if (i < y) {
          leader = false;
          break;
        }
        i = idx(i);
        guard_walk(++len, n);
      }
      if (leader) {
        on_leader(y);
      }
    }
  }

  /// Hard bound on every discovery walk: a bijection's cycle closes
  /// within n steps, so step n+1 proves pi maps two indices to one slot.
  /// Always on (not checked-mode-only): the alternative is an infinite
  /// pointer-chase.  Discovery walks precede the cycle's application, so
  /// the throw happens with the buffer at a stage boundary and the
  /// normal rollback applies.
  static void guard_walk(std::uint64_t steps, std::uint64_t n) {
    if (steps > n) {
      throw error(
          "inplace: permutation is not a bijection — a cycle walk "
          "exceeded n steps (two indices map to one slot)");
    }
  }

  /// Moves one cycle rooted at leader `y`.  Gather (dst[i] = src[pi[i]])
  /// shifts values against the walk; scatter (dst[pi[i]] = src[i]) is
  /// its exact inverse, which is what makes rollback a direction flip.
  /// The walk is bounded: discovery (or the warm-path fingerprint check)
  /// already proved the cycle closes at y.
  template <typename I>
  void apply_cycle(T* data, std::span<const I> pi, std::uint64_t y,
                   bool inverse) {
    const auto idx = [pi](std::uint64_t i) {
      return static_cast<std::uint64_t>(pi[static_cast<std::size_t>(i)]);
    };
    if (!inverse) {
      T saved = std::move(data[y]);
      std::uint64_t i = y;
      for (;;) {
        const std::uint64_t j = idx(i);
        if (j == y) {
          data[i] = std::move(saved);
          break;
        }
        data[i] = std::move(data[j]);
        i = j;
      }
    } else {
      T saved = std::move(data[y]);
      std::uint64_t i = idx(y);
      while (i != y) {
        std::swap(saved, data[i]);
        i = idx(i);
      }
      data[y] = std::move(saved);
    }
  }

  template <typename I>
  void rollback_generic(T* data, std::span<const I> pi,
                        std::size_t applied) noexcept {
    try {
      // Cycles are disjoint; undo each applied one with the opposite
      // walk (reverse order for symmetry with the other rollbacks).
      for (std::size_t k = applied; k-- > 0;) {
        apply_cycle(data, pi, leaders_[k], !plan_.inverse);
      }
    } catch (...) {
      // Swallowed: the original exception is the one the caller sees.
    }
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

  // generic: visited structures (at most one engaged, per the rung) and
  // the memoized cycle leaders, which double as the rollback log.
  std::vector<unsigned char> visited_;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> leaders_;
  bool leaders_ready_ = false;
};

}  // namespace inplace
