#pragma once
// Arbitrary-rank in-place axis permutation: the execution half of the
// HPTT-style engine (planning lives in core/tensor_plan.hpp).  An
// nd_transposer replays a tensor_plan's adjacent-group-swap passes:
//
//   * chunk == 1 passes run through the planned 2-D executor
//     (core/executor.hpp) — one transposer<T> arena per pass, so kernel
//     tiers, NT-streaming policy and the OOM degradation ladder all apply
//     per pass;
//   * chunk > 1 passes run chunk-grid cycle following over a rows x cols
//     grid of contiguous chunk-element blocks through the cycle walker
//     (core/cycle_walker.hpp), whose one visited-scratch funnel walks the
//     OOM ladder byte visited map -> packed bitset -> O(1)-space
//     leader-min cycle following with one element in flight.
//
// The passes run through the executor's one stage loop (run_passes), a
// batched pass's slabs through it again, with "tensor.pass.begin" before
// each pass.  A failure undoes the completed passes in reverse — the
// inverse of an adjacent-group swap is the same swap with the grid
// extents exchanged — on each pass's own arena, so every entry point
// throws with the caller's buffer restored-or-untouched, and rollback
// acquires no scratch.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/tensor_plan.hpp"
#include "util/aligned.hpp"

namespace inplace {

/// Non-owning rank-generic view of a row-major tensor with
/// contract-checked element access — the rank-N generalization of
/// tensor_view (core/tensor.hpp).  Extents validate through the
/// overflow-checked N-D funnel at construction.
template <typename T>
class tensor_view_nd {
 public:
  tensor_view_nd(T* data, std::span<const std::size_t> dims)
      : data_(data), rank_(dims.size()) {
    if (rank_ > tensor_max_rank) {
      throw error("inplace: tensor_view_nd rank exceeds tensor_max_rank");
    }
    total_ = detail::checked_extent_nd(data, dims.data(), dims.size(),
                                       sizeof(T));
    std::size_t stride = 1;
    for (std::size_t k = rank_; k-- > 0;) {
      dims_[k] = dims[k];
      strides_[k] = stride;
      stride *= dims[k];
    }
  }

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const { return total_; }
  [[nodiscard]] T* data() const { return data_; }

  [[nodiscard]] std::size_t extent(std::size_t axis) const {
    INPLACE_REQUIRE(axis < rank_, "tensor_view_nd axis out of range");
    return dims_[axis];
  }

  /// Bounds-checked element access (Checked builds; unchecked in Release).
  [[nodiscard]] T& at(std::span<const std::size_t> idx) const {
    INPLACE_CHECK(idx.size() == rank_,
                  "tensor_view_nd index rank does not match the view");
    for (std::size_t k = 0; k < rank_; ++k) {
      INPLACE_CHECK(idx[k] < dims_[k], "tensor_view_nd index out of range");
    }
    return (*this)(idx);
  }

  /// Unchecked element access.
  [[nodiscard]] T& operator()(std::span<const std::size_t> idx) const {
    std::size_t lin = 0;
    for (std::size_t k = 0; k < rank_; ++k) {
      lin += idx[k] * strides_[k];
    }
    return data_[lin];
  }

 private:
  T* data_;
  std::size_t rank_;
  std::size_t total_ = 0;
  std::array<std::size_t, tensor_max_rank> dims_{};
  std::array<std::size_t, tensor_max_rank> strides_{};
};

namespace detail {

/// One chunk-grid pass: transposes a rows x cols grid of contiguous
/// chunk-element blocks in place (block (i, j) moves to slot j*rows + i)
/// by walking the cycles of its gather map, slot w <- slot
/// (w mod rows) * cols + w / rows, on the rung `visited` holds.  Each
/// cycle moves as soon as discovery has walked it.
///
/// With chunk scratch (`tmp`, one chunk in flight) whole chunks move
/// through the walker's block mover and the plan's kernel tier; `stream`
/// selects unfenced non-temporal stores for the grid destinations — each
/// slot is written once and never re-read within the pass (gather cycle
/// order), so its lines are dead — with one fence() at the end.  Without
/// it (`tmp` null, the leader-min rung) each cycle moves one element
/// offset at a time with a single element in flight: O(1) space.
template <typename T>
void run_chunk_pass(T* base, std::uint64_t rows, std::uint64_t cols,
                    std::uint64_t chunk, visited_map& visited, T* tmp,
                    const kernels::kernel_set* ks = nullptr,
                    bool stream = false) {
  INPLACE_REQUIRE(base != nullptr, "chunk pass invoked with null data");
  if (rows <= 1 || cols <= 1 || chunk == 0) {
    return;
  }
  const std::uint64_t slots = rows * cols;
  const auto src = [rows, cols](std::uint64_t w) {
    return (w % rows) * cols + w / rows;
  };
  block_mover<T> chunks(base, chunk, chunk, tmp, ks, stream);
  discover_cycles(slots, src, visited, [&](std::uint64_t y) {
    if (tmp != nullptr) {
      move_cycle(chunks, src, y, slots);
      return;
    }
    for (std::uint64_t off = 0; off < chunk; ++off) {
      element_mover<T> one(base + off, chunk);
      move_cycle(one, src, y, slots);
    }
  });
  chunks.finish();
}

/// The tensor plan record of an execution (any path: "nd" runs passes,
/// "identity" and "empty" are the early returns, which record too).
template <typename T>
inline void note_tensor_record(std::uint64_t total, std::size_t rank,
                               std::size_t passes, bool from_cache,
                               scratch_rung rung, const char* path,
                               const char* kernel_tier = "",
                               const char* calibration = "") {
  note_record<T>("tensor", path, 0, from_cache, rung,
                 [&](telemetry::plan_record& rec) {
                   rec.m = total;
                   rec.n = passes;
                   rec.block_width = rank;
                   rec.strength_reduction = true;
                   rec.kernel_tier = kernel_tier;
                   rec.calibration = calibration;
                 });
}

}  // namespace detail

/// Reusable rank-N permutation executor: adopts a tensor_plan, builds one
/// arena per pass (a transposer<T> for executor passes, funnel-acquired
/// scratch for chunk passes) and replays the passes per execution.
///
/// Not thread-safe — one instance must not execute on two threads at once
/// (the per-pass arenas are exclusive to one execution); transpose_context
/// hands out distinct instances to concurrent callers, exactly as it does
/// for transposer<T>.
template <typename T>
class nd_transposer {
 public:
  explicit nd_transposer(detail::tensor_plan plan, const options& opts = {})
      : plan_(std::move(plan)),
        ktier_(kernels::resolve_tier(opts.kernel)) {
    // inplace-lint: allow-next(raw-alloc): cold-path arena construction,
    // sized once at plan adoption (mirrors the transposer<T> constructor)
    passes_.reserve(plan_.passes.size());
    for (const auto& p : plan_.passes) {
      pass_state ps;
      ps.pass = p;
      if (p.chunk == 1) {
        ps.tr.emplace(static_cast<std::size_t>(p.rows),
                      static_cast<std::size_t>(p.cols),
                      storage_order::row_major, opts);
        worst_rung_ = std::max(worst_rung_, ps.tr->plan().rung);
      } else {
        // The chunk in flight lives and dies with the visited rung: the
        // leader-min rung moves one element at a time instead.
        const scratch_rung rung =
            detail::acquire_visited(ps.visited, p.rows * p.cols, [&] {
              INPLACE_FAILPOINT("tensor.chunk.alloc");
              // inplace-lint: allow-next(raw-alloc): chunk scratch sized
              // inside the visited-scratch funnel's demotion ladder
              ps.tmp.resize(static_cast<std::size_t>(p.chunk));
            });
        if (rung == scratch_rung::cycle_follow) {
          ps.tmp = util::aligned_vector<T>();
        }
        worst_rung_ = std::max(worst_rung_, rung);
        // Same matrix-scale NT policy as 2-D planning: each chunk pass
        // sweeps the whole tensor once, so the pass working set is the
        // tensor itself.
        ps.stream = kernels::streaming_profitable(
            static_cast<std::size_t>(p.rows * p.cols * p.chunk * p.batch) *
                sizeof(T),
            ktier_);
      }
      // inplace-lint: allow-next(raw-alloc): cold-path arena construction
      // (see the reserve above)
      passes_.push_back(std::move(ps));
    }
  }

  [[nodiscard]] const detail::tensor_plan& plan() const { return plan_; }

  /// True when any pass's scratch acquisition landed below
  /// scratch_rung::full (an OOM ladder engaged while building the arena).
  [[nodiscard]] bool degraded() const {
    return worst_rung_ != scratch_rung::full;
  }

  /// Permutes one tensor in place.  `data` must have the planned extents.
  void operator()(T* data) { execute(data, /*from_cache=*/false); }

  /// operator() with the telemetry provenance flag transpose_context
  /// passes for cached arenas (matches transposer<T>::execute).
  void execute(T* data, bool from_cache) {
    detail::note_tensor_record<T>(plan_.norm.total, plan_.norm.rank,
                                  passes_.size(), from_cache, worst_rung_,
                                  passes_.empty() ? "identity" : "nd",
                                  kernels::tier_name(ktier_),
                                  plan_.calibration);
    const telemetry::span span_total{[&] {
      return telemetry::span_spec{telemetry::stage::total,
                                  2 * plan_.norm.total * sizeof(T),
                                  cached_bytes()};
    }};
    pass_stages stages{*this, data, from_cache};
    detail::run_passes(stages, direction::c2r);
  }

  /// Approximate bytes retained by the per-pass arenas; transpose_context
  /// uses it to bound the total memory its arena cache pins.
  [[nodiscard]] std::size_t cached_bytes() const {
    std::size_t total = passes_.capacity() * sizeof(pass_state);
    for (const auto& ps : passes_) {
      total += ps.tr ? ps.tr->cached_bytes() : ps.chunk_bytes();
    }
    return total;
  }

 private:
  struct pass_state {
    detail::nd_pass pass;
    std::optional<transposer<T>> tr;  ///< chunk == 1 passes
    detail::visited_map visited;      ///< chunk > 1 passes: cycle discovery
    util::aligned_vector<T> tmp;      ///< one chunk in flight (may be empty)
    bool stream = false;  ///< chunk-pass NT-store decision (plan-time)

    [[nodiscard]] std::size_t chunk_bytes() const {
      return visited.bytes() + tmp.capacity() * sizeof(T);
    }
  };

  /// A batched pass's slabs as a stage list: each slab is a transposer
  /// run, which restores itself on a throw; its inverse is
  /// transposer::undo on the same arena.
  struct slab_stages {
    pass_state& ps;
    T* data;
    bool from_cache;

    [[nodiscard]] std::size_t size() const { return ps.pass.batch; }
    void boundary(std::size_t /*k*/) const {}
    [[nodiscard]] bool restores(std::size_t /*k*/) const { return true; }
    void run(std::size_t k, direction dir, bool /*tuned*/) {
      T* slab = data + k * ps.pass.rows * ps.pass.cols;
      if (dir == direction::c2r) {
        ps.tr->execute(slab, from_cache);
      } else {
        ps.tr->undo(slab);
      }
    }
  };

  /// The plan's passes as a stage list: "tensor.pass.begin" fires before
  /// each pass moves anything, and each pass has its own span.  A
  /// batched pass is itself a stage loop over its slabs, so a throw
  /// inside it leaves it restored.
  struct pass_stages {
    nd_transposer& nd;
    T* data;
    bool from_cache;

    [[nodiscard]] std::size_t size() const { return nd.passes_.size(); }
    void boundary(std::size_t k) const {
      if (k < size()) {
        INPLACE_FAILPOINT("tensor.pass.begin");
      }
    }
    [[nodiscard]] telemetry::span_spec span(std::size_t k) const {
      const pass_state& ps = nd.passes_[k];
      return {telemetry::stage::total, 2 * nd.plan_.norm.total * sizeof(T),
              ps.tr ? ps.tr->plan().scratch_elements() * sizeof(T)
                    : ps.chunk_bytes()};
    }
    [[nodiscard]] bool restores(std::size_t k) const {
      return nd.passes_[k].tr.has_value();
    }
    void run(std::size_t k, direction dir, bool tuned) {
      pass_state& ps = nd.passes_[k];
      const bool planned = dir == direction::c2r;
      if (ps.tr) {
        slab_stages slabs{ps, data, from_cache};
        if (planned) {
          detail::run_passes(slabs, dir);
        } else {
          detail::rollback_passes(slabs, slabs.size(), direction::c2r);
        }
        return;
      }
      // The chunk walk runs no engine and allocates nothing, so once
      // chunks move the pass completes.  Its inverse exchanges the grid
      // extents, on the same visited map and chunk buffer.
      const detail::nd_pass& p = ps.pass;
      const kernels::kernel_set* ks =
          tuned ? &kernels::set_for(nd.ktier_) : nullptr;
      for (std::uint64_t b = 0; b < p.batch; ++b) {
        detail::run_chunk_pass(data + b * p.rows * p.cols * p.chunk,
                               planned ? p.rows : p.cols,
                               planned ? p.cols : p.rows, p.chunk, ps.visited,
                               ps.tmp.empty() ? nullptr : ps.tmp.data(), ks,
                               tuned && ps.stream);
      }
    }
  };

  detail::tensor_plan plan_;
  kernels::tier ktier_ = kernels::tier::scalar;
  std::vector<pass_state> passes_;
  scratch_rung worst_rung_ = scratch_rung::full;
};

}  // namespace inplace
