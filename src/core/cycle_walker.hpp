#pragma once
// The cycle-leader walker: every in-place permutation the library applies
// by cycle following goes through this header — the 2-D row-cycle passes
// (Section 4.7's static row permutation in the blocked column shuffle and
// skinny's whole-row permutation), the tensor chunk-grid passes, the
// generic `permute` executor, and the transposer's O(1)-space bottom rung
// (the introduction's cycle-following baseline over l*mult mod (mn-1)).
//
// A permutation is a gather map f on [0, n): dst[i] = src[f(i)].  The
// walker has three parts:
//
//   discovery    discover_cycles() finds each nontrivial cycle's leader,
//                its minimum slot, on one of three visited-scratch rungs:
//                a byte map, a packed bitset, or no scratch at all
//                (leader-min: a candidate leads iff walking its cycle
//                meets no smaller slot — O(1) space, O(n * cycle) time,
//                or one leader at a time with next_leader());
//   application  move_cycle() moves one cycle through a block mover —
//                one element (element_mover) or a strided run of `width`
//                elements (block_mover: a column group's sub-rows, whole
//                skinny rows, a tensor grid's contiguous chunks) — as a
//                gather, or as its inverse scatter;
//   memo         discover_or_replay() discovers the leaders once and
//                replays them on later runs of the same map, stamped with
//                the key of the walk that found them.  Capped at S hops,
//                discovery also cuts every cycle longer than S into
//                segments of S hops (cycle_memo::splits) that a team
//                walks independently: move_segment() walks one, closing
//                it from a saved copy of its successor's first block.
//
// acquire_visited() is the one visited-scratch funnel: it walks the
// byte map -> bitset -> leader-min ladder, demoting on std::bad_alloc.
//
// Maps come in two kinds (walk_check): the library's own index math,
// whose bijectivity the Checked build proves (contract_violation), and a
// caller's permutation, checked always (inplace::error).  Discovery of
// either kind rejects a non-bijection before it reports a leader, so a
// caller that discovers before it applies moves nothing on bad input.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/errors.hpp"
#include "core/plan.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/aligned.hpp"

namespace inplace::detail {

/// Who vouches for a map's bijectivity.
enum class walk_check : std::uint8_t {
  internal,  ///< library index math: Checked builds prove it
  external,  ///< a caller's permutation: always checked
};

/// The failure of a guard on an external map, kept out of the walk loops.
[[noreturn, gnu::cold, gnu::noinline]] inline void walk_failed(
    const char* what) {
  throw error(std::string("inplace: permutation is not a bijection (") +
              what + ")");
}

/// One bijectivity/range guard on a walk.  A failed guard throws
/// inplace::error for an external map and contract_violation (Checked
/// builds only) for an internal one.
template <walk_check C>
inline void check_walk(bool ok, const char* what) {
  if constexpr (C == walk_check::external) {
    if (!ok) [[unlikely]] {
      walk_failed(what);
    }
  } else {
    INPLACE_CHECK(ok, what);
  }
}

/// Visited scratch for cycle discovery: one byte per slot
/// (scratch_rung::full), one bit per slot (reduced), or nothing
/// (cycle_follow — discovery falls back to the leader-min walk).
class visited_map {
 public:
  /// Sizes the map for `slots` slots on `rung`.  Allocates through
  /// util::aligned_vector (the "alloc.aligned" failpoint); may throw
  /// std::bad_alloc, leaving the map empty.
  void allocate(std::uint64_t slots, scratch_rung rung) {
    release();
    const std::uint64_t bytes = rung == scratch_rung::full      ? slots
                                : rung == scratch_rung::reduced ? (slots + 7) / 8
                                                                : 0;
    // inplace-lint: allow-next(raw-alloc): the visited-scratch funnel's
    // one allocation, sized once per arena before any walk runs
    bits_.resize(static_cast<std::size_t>(bytes));
    slots_ = rung == scratch_rung::cycle_follow ? 0 : slots;
    rung_ = rung;
  }

  void release() noexcept {
    bits_ = util::aligned_vector<std::uint8_t>();
    slots_ = 0;
    rung_ = scratch_rung::cycle_follow;
  }

  [[nodiscard]] scratch_rung rung() const { return rung_; }
  /// Slots the map covers (0 on the leader-min rung).
  [[nodiscard]] std::uint64_t size() const { return slots_; }
  [[nodiscard]] std::size_t bytes() const { return bits_.capacity(); }

  void clear() { std::fill(bits_.begin(), bits_.end(), std::uint8_t{0}); }

  template <bool Packed>
  [[nodiscard]] bool test(std::uint64_t i) const {
    if constexpr (Packed) {
      return ((bits_[i >> 3] >> (i & 7)) & 1u) != 0;
    } else {
      return bits_[i] != 0;
    }
  }

  template <bool Packed>
  void mark(std::uint64_t i) {
    if constexpr (Packed) {
      bits_[i >> 3] = static_cast<std::uint8_t>(bits_[i >> 3] | (1u << (i & 7)));
    } else {
      bits_[i] = 1;
    }
  }

 private:
  util::aligned_vector<std::uint8_t> bits_;
  std::uint64_t slots_ = 0;
  scratch_rung rung_ = scratch_rung::cycle_follow;
};

/// The visited-scratch funnel: tries the byte map, then the packed
/// bitset, and lands on the scratch-free leader-min rung.  Before each
/// allocating rung it calls `probe()`, which fires the caller's failpoint
/// and may size scratch of its own that lives and dies with the rung.
/// std::bad_alloc from either demotes; any other exception propagates
/// with nothing built.  Returns the rung it landed on.
template <typename Probe>
scratch_rung acquire_visited(visited_map& v, std::uint64_t slots,
                             Probe&& probe) {
  for (const scratch_rung rung : {scratch_rung::full, scratch_rung::reduced}) {
    try {
      probe();
      v.allocate(slots, rung);
      return rung;
    } catch (const std::bad_alloc&) {
      v.release();
    }
  }
  return scratch_rung::cycle_follow;
}

/// discover_cycles' default hop hook: ignores every hop.
struct no_hop {
  void operator()(std::uint64_t /*y*/, std::uint64_t /*i*/,
                  std::uint64_t /*k*/) const noexcept {}
};

/// Calls on_leader(y) for the leader y (minimum slot) of every nontrivial
/// cycle of the gather map f on [0, n), in increasing y, on the rung `v`
/// holds.  On the marking rungs it also calls on_hop(y, i, k), before
/// on_leader(y), for the k-th hop i = f^k(y) of that cycle's walk, k in
/// [1, length); the leader-min rung, which learns only at the end of a
/// walk whether it started at a leader, reports no hops.  Every cycle is
/// walked whole before its leader is reported, and the walk bound (n
/// steps), range and revisit guards reject a map that is not a bijection
/// per walk_check C.  On the leader-min rung a map whose cycles do not
/// cover [0, n) is rejected only after the last leader — callers that
/// must move nothing on bad input collect the leaders first
/// (discover_or_replay).
template <walk_check C = walk_check::internal, scratch_rung R,
          typename IndexFn, typename OnLeader, typename OnHop = no_hop>
void discover_cycles_on(std::uint64_t n, IndexFn f, visited_map& v,
                        OnLeader&& on_leader, OnHop&& on_hop = OnHop{}) {
  constexpr bool marks = R != scratch_rung::cycle_follow;
  constexpr bool packed = R == scratch_rung::reduced;
  if constexpr (marks) {
    INPLACE_REQUIRE(v.size() >= n, "visited map smaller than the walk");
    v.clear();
  }
  std::uint64_t covered = 0;  // slots on cycles found so far
  for (std::uint64_t y = 0; y < n; ++y) {
    if constexpr (marks) {
      if (v.template test<packed>(y)) {
        continue;
      }
      v.template mark<packed>(y);
    }
    std::uint64_t len = 1;
    bool leader = true;
    for (std::uint64_t i = f(y); i != y; i = f(i)) {
      ++len;
      check_walk<C>(i < n, "a cycle walk left the index range");
      check_walk<C>(len <= n, "a cycle walk exceeded n steps");
      if constexpr (marks) {
        check_walk<C>(!v.template test<packed>(i),
                      "a cycle walk revisited a slot");
        v.template mark<packed>(i);
        on_hop(y, i, len - 1);
      } else if (i < y) {
        leader = false;
        break;
      }
    }
    if (leader) {
      covered += len;
      if (len > 1) {
        on_leader(y);
      }
    }
  }
  check_walk<C>(covered == n, "the cycles do not cover every slot");
}

/// discover_cycles_on for whichever rung `v` holds.
template <walk_check C = walk_check::internal, typename IndexFn,
          typename OnLeader, typename OnHop = no_hop>
void discover_cycles(std::uint64_t n, IndexFn f, visited_map& v,
                     OnLeader&& on_leader, OnHop&& on_hop = OnHop{}) {
  switch (v.rung()) {
    case scratch_rung::full:
      discover_cycles_on<C, scratch_rung::full>(n, f, v, on_leader, on_hop);
      return;
    case scratch_rung::reduced:
      discover_cycles_on<C, scratch_rung::reduced>(n, f, v, on_leader,
                                                   on_hop);
      return;
    case scratch_rung::cycle_follow:
      discover_cycles_on<C, scratch_rung::cycle_follow>(n, f, v, on_leader,
                                                        on_hop);
      return;
  }
}

/// The smallest leader >= `from` of a nontrivial cycle of f, or n: the
/// leader-min rung one leader at a time, in O(1) space.  f must be a
/// bijection a discovery sweep has already proven.
template <typename IndexFn>
std::uint64_t next_leader(std::uint64_t n, IndexFn f, std::uint64_t from) {
  for (std::uint64_t y = from; y < n; ++y) {
    std::uint64_t i = f(y);
    while (i > y) {
      i = f(i);
    }
    if (i == y && f(y) != y) {
      return y;
    }
  }
  return n;
}

/// Moves single elements slot i <-> base[i * stride], holding the one
/// element in flight in a register.
template <typename T>
class element_mover {
 public:
  explicit element_mover(T* base, std::uint64_t stride = 1)
      : base_(base), stride_(stride) {}

  void save(std::uint64_t i) { held_ = std::move(at(i)); }
  void move(std::uint64_t dst, std::uint64_t src) {
    at(dst) = std::move(at(src));
  }
  void restore(std::uint64_t i) { at(i) = std::move(held_); }
  void exchange(std::uint64_t i) {
    using std::swap;
    swap(held_, at(i));
  }
  void prefetch(std::uint64_t /*i*/) const {}
  void finish() const {}

 private:
  T& at(std::uint64_t i) { return base_[i * stride_]; }

  T* base_;
  std::uint64_t stride_;
  T held_{};
};

/// Moves `width`-element blocks, slot i at base + i * stride, through a
/// `width`-element scratch block: a column group's sub-rows (stride = the
/// row length), whole rows, or a grid's contiguous chunks (stride ==
/// width).  With a kernel set, blocks of trivially copyable elements go
/// through the tier's copy; `stream` selects unfenced non-temporal stores
/// for the destinations (finish() publishes them with one fence).  The
/// scratch save stays temporal: the cycle close re-reads it.
template <typename T>
class block_mover {
 public:
  block_mover(T* base, std::uint64_t stride, std::uint64_t width, T* tmp,
              const kernels::kernel_set* ks = nullptr, bool stream = false)
      : base_(base),
        stride_(stride),
        width_(width),
        tmp_(tmp),
        bytes_(static_cast<std::size_t>(width) * sizeof(T)),
        ks_(std::is_trivially_copyable_v<T> ? ks : nullptr),
        stream_(stream && ks_ != nullptr) {}

  void save(std::uint64_t i) { copy(tmp_, at(i), /*to_matrix=*/false); }
  void move(std::uint64_t dst, std::uint64_t src) {
    copy(at(dst), at(src), /*to_matrix=*/true);
  }
  void restore(std::uint64_t i) { copy(at(i), tmp_, /*to_matrix=*/true); }
  void exchange(std::uint64_t i) {
    std::swap_ranges(tmp_, tmp_ + width_, at(i));
  }
  void prefetch(std::uint64_t i) const { kernels::prefetch_read(at(i)); }
  void finish() const {
    if (stream_) {
      ks_->fence();
    }
  }

 private:
  [[nodiscard]] T* at(std::uint64_t i) const { return base_ + i * stride_; }

  void copy(T* dst, const T* src, bool to_matrix) const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (ks_ != nullptr) {
        (stream_ && to_matrix ? ks_->stream_subrow : ks_->copy)(dst, src,
                                                                bytes_);
        return;
      }
    }
    std::copy(src, src + width_, dst);
  }

  T* base_;
  std::uint64_t stride_;
  std::uint64_t width_;
  T* tmp_;
  std::size_t bytes_;
  const kernels::kernel_set* ks_;
  bool stream_;
};

/// The gather walk dst[i] = src[f(i)] from slot `from` along f, up to the
/// slot whose source is `to`, which mv.restore() closes from the block
/// the mover holds: one segment of a split cycle (closed from its
/// successor's saved first block), or, after mv.save(y), the whole cycle
/// led by y (from = to = y).  Each hop prefetches the next source block
/// (the hops follow the permutation — the random stride pattern hardware
/// prefetchers miss).  At most `bound` moves per walk_check C: ranges
/// were proven by discovery, so an exceeded bound can only mean f changed
/// since, and leaves the walk part-moved.
template <walk_check C = walk_check::internal, typename Mover,
          typename IndexFn>
void move_segment(Mover& mv, IndexFn f, std::uint64_t from, std::uint64_t to,
                  std::uint64_t bound) {
  std::uint64_t steps = 0;
  std::uint64_t i = from;
  std::uint64_t s = f(from);
  for (;;) {
    ++steps;
    check_walk<C>(steps <= bound, "a cycle replay ran off its cycle");
    if (s == to) {
      mv.restore(i);
      return;
    }
    const std::uint64_t s_next = f(s);
    if (s_next != to) {
      mv.prefetch(s_next);
    }
    mv.move(i, s);
    i = s;
    s = s_next;
  }
}

/// Applies the cycle of the gather map f (on [0, n)) led by `y` through
/// `mv`: as the gather dst[i] = src[f(i)] (move_segment over the whole
/// cycle), or with `scatter` as its inverse dst[f(i)] = src[i].  The
/// walk is bounded by n steps per walk_check C.
template <walk_check C = walk_check::internal, typename Mover,
          typename IndexFn>
void move_cycle(Mover& mv, IndexFn f, std::uint64_t y, std::uint64_t n,
                bool scatter = false) {
  mv.save(y);
  if (!scatter) {
    move_segment<C>(mv, f, y, y, n);
    return;
  }
  std::uint64_t steps = 0;
  for (std::uint64_t i = f(y); i != y; i = f(i)) {
    ++steps;
    check_walk<C>(steps < n, "a cycle replay ran off its cycle");
    mv.exchange(i);
  }
  mv.restore(y);
}

/// A cycle-leader list memoized across runs of one map, stamped with the
/// key of the walk that discovered it.  A discovery capped at S hops also
/// splits every cycle longer than S: `splits` holds each such cycle's
/// segment starts y, f^S(y), f^2S(y), ... (leader first), cycle after
/// cycle, `split_ends[k]` is one past cycle k's last entry, and the split
/// cycles are not in `starts`.  Segment s runs from splits[s] up to the
/// start of next_segment(s).
struct cycle_memo {
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> splits;
  std::vector<std::uint64_t> split_ends;
  bool ready = false;
  std::uint64_t key = 0;

  /// Bytes the lists retain.
  [[nodiscard]] std::size_t bytes() const {
    return (starts.capacity() + splits.capacity() + split_ends.capacity()) *
           sizeof(std::uint64_t);
  }
};

/// Most segment starts a discovery capped at `seg` hops records over n
/// slots: a cycle of length len > seg splits into ceil(len / seg) <
/// 2 len / seg segments.
[[nodiscard]] constexpr std::uint64_t max_splits(std::uint64_t n,
                                                 std::uint64_t seg) {
  return 2 * ((n + seg - 1) / seg);
}

/// The segment that follows segment s of a split memo: the next one of
/// s's cycle, or that cycle's first after its last.
[[nodiscard]] inline std::size_t next_segment(const cycle_memo& memo,
                                              std::size_t s) {
  const auto end = std::upper_bound(memo.split_ends.begin(),
                                    memo.split_ends.end(), s);
  const std::size_t first = end == memo.split_ends.begin() ? 0 : *(end - 1);
  return s + 1 < *end ? s + 1 : first;
}

/// Discovers the cycles of f on [0, n) into memo's split lists: every
/// cycle longer than `seg` hops (0: none; the leader-min rung never
/// splits) is cut into segments recorded in memo.splits/split_ends, and
/// on_whole(y) is called for the leader y of every cycle left whole, once
/// discovery has walked it.  memo.starts is cleared, not filled.
template <walk_check C = walk_check::internal, typename IndexFn,
          typename OnWhole>
void discover_split_cycles(cycle_memo& memo, std::uint64_t n, IndexFn f,
                           visited_map& v, std::uint64_t seg,
                           OnWhole&& on_whole) {
  memo.starts.clear();
  memo.splits.clear();
  memo.split_ends.clear();
  // inplace-lint: allow-block(raw-alloc): split list appends — bounded by
  // 2n/seg and n/seg; reserve_skinny sizes them and the arena retains
  // their capacity
  const auto on_leader = [&memo, &on_whole](std::uint64_t y) {
    const std::size_t closed =
        memo.split_ends.empty() ? 0 : memo.split_ends.back();
    if (memo.splits.size() > closed) {
      memo.split_ends.push_back(memo.splits.size());
    } else {
      on_whole(y);
    }
  };
  if (seg == 0 || v.rung() == scratch_rung::cycle_follow) {
    discover_cycles<C>(n, f, v, on_leader);
  } else {
    // A countdown per cycle instead of k % seg: no division per hop.
    std::uint64_t left = seg;
    discover_cycles<C>(n, f, v, on_leader,
                       [&memo, &left, seg](std::uint64_t y, std::uint64_t i,
                                           std::uint64_t k) {
                         if (k == 1) {
                           left = seg;
                         }
                         if (--left == 0) {
                           left = seg;
                           if (k == seg) {
                             memo.splits.push_back(y);
                           }
                           memo.splits.push_back(i);
                         }
                       });
  }
  // inplace-lint: end-block
}

/// The leaders of f's cycles on [0, n).  A ready `memo` replays its list
/// once its stamp equals `key`; any other stamp throws inplace::error in
/// every build, before anything moves (a memo replayed against another
/// map would silently scramble the buffer).  Otherwise
/// discovery fills it and stamps it, splitting the cycles longer than
/// `seg` hops into memo.splits (discover_split_cycles) and listing the
/// others' leaders in memo.starts.  Discovery completes, rejecting a
/// non-bijection, before the list is returned, so nothing has moved when
/// it throws.
template <walk_check C = walk_check::internal, typename IndexFn>
const std::vector<std::uint64_t>& discover_or_replay(cycle_memo& memo,
                                                     std::uint64_t key,
                                                     std::uint64_t n,
                                                     IndexFn f,
                                                     visited_map& v,
                                                     std::uint64_t seg = 0) {
  if (memo.ready) {
    if (memo.key != key) {
      throw error(
          "inplace: cycle memo replayed against a different map than the "
          "one that discovered it (a stale memo would silently corrupt the "
          "buffer)");
    }
    return memo.starts;
  }
  // inplace-lint: allow-block(raw-alloc): leader list appends — bounded
  // by the cycle count (< n); the arena retains their capacity
  discover_split_cycles<C>(memo, n, f, v, seg, [&memo](std::uint64_t y) {
    memo.starts.push_back(y);
  });
  // inplace-lint: end-block
  memo.ready = true;
  memo.key = key;
  return memo.starts;
}

/// Applies every cycle whose leader `leaders` lists (a leader list or an
/// index range) through `mv`, then publishes the mover's streamed stores.
template <walk_check C = walk_check::internal, typename Mover,
          typename IndexFn, typename Leaders>
void move_cycles(Mover& mv, IndexFn f, const Leaders& leaders,
                 std::uint64_t n) {
  for (const std::uint64_t y : leaders) {
    move_cycle<C>(mv, f, y, n);
  }
  mv.finish();
}

}  // namespace inplace::detail
