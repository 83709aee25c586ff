#pragma once
// Planning: algorithm direction (Section 5.2's heuristic), engine variant
// and scratch sizing for one transposition.  The plan is element-type
// independent; engines consume it together with a transpose_math instance.

#include <cstddef>
#include <cstdint>

#include "core/layout.hpp"
#include "cpu/kernels/tier.hpp"

namespace inplace {

/// Which of the two mutually inverse permutations to run (Figure 1).
enum class direction { c2r, r2c };

/// Engine implementations (Sections 4-5).
enum class engine_kind {
  automatic,  ///< pick by shape: skinny for narrow problems, else blocked
  reference,  ///< Algorithm 1 verbatim: naive per-row/per-column passes
  blocked,    ///< cache-aware rotations + cycle row permute, parallel
  skinny,     ///< Section 6.1 fused streaming passes (narrow arrays)
};

/// Stable display names (telemetry plan records, bench JSON).
[[nodiscard]] constexpr const char* engine_name(engine_kind e) {
  switch (e) {
    case engine_kind::automatic:
      return "automatic";
    case engine_kind::reference:
      return "reference";
    case engine_kind::blocked:
      return "blocked";
    case engine_kind::skinny:
      return "skinny";
  }
  return "unknown";
}

[[nodiscard]] constexpr const char* direction_name(direction d) {
  return d == direction::c2r ? "c2r" : "r2c";
}

/// Which rung of the memory-pressure degradation ladder a plan's scratch
/// acquisition landed on.  Planning always targets `full`; the executor
/// walks down only when an allocation throws std::bad_alloc
/// (see detail::acquire_scratch in core/executor.hpp).
enum class scratch_rung : std::uint8_t {
  full,         ///< Theorem 6 scratch, per-thread pool — the fast path
  reduced,      ///< serial, minimum sub-row width, a single workspace
  cycle_follow, ///< O(1)-auxiliary-space cycle following, no scratch
};

/// Stable display names (telemetry plan records, bench JSON).
[[nodiscard]] constexpr const char* rung_name(scratch_rung r) {
  switch (r) {
    case scratch_rung::full:
      return "full";
    case scratch_rung::reduced:
      return "reduced";
    case scratch_rung::cycle_follow:
      return "cycle_follow";
  }
  return "unknown";
}

/// Elements of the fine rotation's head buffer for an m-row group of
/// `width` columns: its residuals stay below min(width, m), so at most
/// min(width, m) - 1 sub-rows wrap (core/rotate.hpp, fine_rotate_group).
[[nodiscard]] constexpr std::uint64_t fine_head_elements(std::uint64_t m,
                                                         std::uint64_t width) {
  const std::uint64_t rows = m < width ? m : width;
  return rows == 0 ? 0 : (rows - 1) * width;
}

/// User-facing knobs for the public API.
struct options {
  /// Force a direction; `automatic` applies the paper's heuristic
  /// (Section 5.2): C2R when rows > cols, else R2C with swapped extents.
  enum class algorithm { automatic, c2r, r2c };
  algorithm alg = algorithm::automatic;

  engine_kind engine = engine_kind::automatic;

  /// Section 4.4 strength reduction; disabling selects hardware division
  /// (used by the ablation benchmark).
  bool strength_reduction = true;

  /// OpenMP thread count; 0 keeps the runtime default.
  int threads = 0;

  /// Sub-row width in bytes for the blocked engine's column passes; 0
  /// derives it from the shape, the team and the probed caches
  /// (derived_block_bytes).  Section 4.6 sizes sub-rows to the GPU's
  /// 128-byte cache lines; on CPUs a few lines amortize the random-row
  /// hops better, so small plans take 256 bytes.  Once a 256-byte column
  /// group spills L2, every hop lands on a new page whatever the width,
  /// and page-scale sub-rows move more bytes per page
  /// (bench/ablation_block_width).  The planner clamps the width to the
  /// column count either way.
  std::size_t block_bytes = 0;

  /// Hot-path kernel tier; `automatic` lets runtime CPU detection pick
  /// the best compiled tier (cpu/kernels/).  Pinning tier::scalar is the
  /// ablation baseline; the INPLACE_FORCE_KERNEL_TIER environment
  /// variable overrides whatever is set here at plan time.
  kernels::tier kernel = kernels::tier::automatic;

  /// In-register tile-transpose path (the Section 6.2 ladders realized
  /// as SIMD kernels).  `automatic` engages it when the plan-time gate
  /// holds: skinny engine, strength reduction on, 4/8-byte elements, the
  /// tier implements tile passes, the lane width divides m, n fits the
  /// register budget and the chunked problem stays tall.  `off` disables
  /// it unconditionally — the scratch-line ablation foil
  /// (bench/ablation_kernels).  INPLACE_FORCE_KERNEL_TIER=inreg (or
  /// <tier>-inreg) forces the path onto any shape that passes the
  /// correctness part of the gate.
  enum class tile_mode : std::uint8_t { automatic, off };
  tile_mode tile = tile_mode::automatic;
};

/// A resolved execution plan.
struct transpose_plan {
  std::uint64_t m = 0;      ///< rows as seen by the algorithm
  std::uint64_t n = 0;      ///< cols as seen by the algorithm
  direction dir = direction::c2r;
  engine_kind engine = engine_kind::blocked;
  bool strength_reduction = true;
  int threads = 0;
  std::uint64_t block_width = 16;  ///< sub-row width in *elements*

  /// Resolved hot-path kernel tier (never tier::automatic after
  /// planning): options.kernel filtered through the environment
  /// override, runtime CPU detection and the availability chain.
  kernels::tier ktier = kernels::tier::scalar;

  /// True when the copy-back and rotation passes should use non-temporal
  /// streaming stores: the tier has them and the working set exceeds the
  /// cache threshold probed at startup (kernels::streaming_threshold).
  bool streaming_stores = false;

  /// Where scratch acquisition landed on the OOM degradation ladder.
  /// Planning emits `full`; the executor demotes (and rewrites threads /
  /// block_width to match) only when allocation fails.
  scratch_rung rung = scratch_rung::full;

  /// Vector lane count W of the in-register tile pass fused into the
  /// skinny engine; 0 = scratch-line path.  When set, the engine runs
  /// the chunked factorization: the C2R of m x n becomes the forward
  /// tile pass (static_r2c<n, W>) on every W x n slab followed by the
  /// skinny C2R of the (m/W) x n matrix of W-element chunks (R2C is the
  /// mirror with the inverse pass last), with the tile pass fused into
  /// the skinny engine's streaming row passes so no extra DRAM sweep is
  /// paid.  The executor clears it (falling back to the scratch-line
  /// path) only when the chunk workspace cannot be allocated.
  std::uint64_t tile_block = 0;

  /// Scratch elements the engines may allocate; Theorem 6's bound of
  /// max(m, n) plus the constant-size cache-aware buffers.
  [[nodiscard]] std::uint64_t scratch_elements() const;
};

/// Builds the plan for transposing a `rows x cols` matrix stored in
/// `order`, after validating extents.  The returned plan's (m, n) are the
/// extents the chosen permutation runs with — already swapped when the
/// heuristic picked the R2C form (Theorem 2).
transpose_plan make_plan(const void* data, std::size_t rows,
                         std::size_t cols, storage_order order,
                         const options& opts, std::size_t elem_size);

/// Builds a plan for the raw C2R/R2C permutation on an m x n row-major
/// view, without the heuristic or any extent swapping.  Used by the
/// low-level c2r()/r2c() entry points and by the benchmarks that study one
/// direction in isolation (Figs. 4-5).
transpose_plan make_directed_plan(const void* data, std::size_t m,
                                  std::size_t n, direction dir,
                                  const options& opts, std::size_t elem_size);

/// Shape-only planning (no data pointer yet) — used by transposer<T> to
/// plan before buffers exist.  Validates extents but not the pointer.
transpose_plan make_plan_for_shape(std::size_t rows, std::size_t cols,
                                   storage_order order, const options& opts,
                                   std::size_t elem_size);

/// The sub-row width in bytes make_directed_plan derives for an m x n
/// `engine` plan of `elem_size`-byte elements on `threads` threads (0:
/// the OpenMP default) when options::block_bytes is 0: 256 bytes, or for
/// a blocked plan whose 256-byte column group (m * 256 bytes) spills the
/// probed L2, the widest power of two W >= 256 whose fine window
/// (max(1, W / elem_size) rows of W bytes) fits a quarter of L2 and that
/// still leaves every thread of the team two column groups
/// (2 * threads * W <= n * elem_size).
[[nodiscard]] std::size_t derived_block_bytes(std::uint64_t m,
                                              std::uint64_t n,
                                              std::size_t elem_size,
                                              engine_kind engine,
                                              int threads);

/// Shape threshold for the skinny specialization (Section 6.1): problems
/// whose algorithm-facing column count is at most this use fused passes.
inline constexpr std::uint64_t skinny_col_limit = 32;

}  // namespace inplace
