#pragma once
// Plan-reusing execution: `transposer<T>` resolves a plan once — the index
// math (including every strength-reduced reciprocal), the scratch, and the
// plan's list of passes — so repeated transpositions of the same shape,
// the common case in iterative solvers and ML input pipelines, pay no
// per-call setup.  `transpose_batched` applies it across a contiguous
// batch of equally shaped matrices.
//
// Every 2-D plan lowers to at most three passes.  Each pass of the
// decomposition is a bijection whose inverse is the matching pass of the
// opposite direction (Theorems 1-2), so a pass is one body run in either
// direction, and R2C runs C2R's passes in reverse order:
//
//   engine      C2R passes
//   reference   prerotate (Eq. 23), row_shuffle (Eq. 24), col_shuffle
//               (Eq. 26) — Algorithm 1
//   blocked     prerotate, row_shuffle, col_shuffle — Section 4's
//               cache-aware, parallel forms
//   skinny      fused_row, rotation, permute — Section 6.1
//
// The pre-rotation pass exists only when gcd(m, n) > 1.  In-register tile
// plans run the skinny passes on W-lane chunks, with the tile pass fused
// into the row pass.
//
// One stage loop (run_passes) executes every list, and the tensor and
// permute front ends' stages too: it opens each pass's span, fires the
// boundary failpoint "<engine>.<dir>.after_<pass>" after the pass, and on
// a throw replays the completed passes' inverses in reverse
// (rollback_passes), restoring the caller's buffer bit-exactly before the
// exception continues.  Scratch comes from acquire_scratch, which walks
// the OOM degradation ladder instead of failing; its bottom rung is the
// cycle walker's leader-min rung (core/cycle_walker.hpp).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>

#include "core/contracts.hpp"
#include "core/cycle_walker.hpp"
#include "core/equations.hpp"
#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/layout.hpp"
#include "core/plan.hpp"
#include "core/telemetry.hpp"
#include "cpu/engine_blocked.hpp"
#include "cpu/engine_reference.hpp"
#include "cpu/kernels/tile_inreg.hpp"
#include "cpu/skinny.hpp"
#include "util/threads.hpp"

namespace inplace {

namespace detail {

/// Emits one telemetry plan record: the fields every front end shares
/// here, its own through `fill`.  Costs one sink load when no sink is
/// installed.  `from_cache` marks transpose_context cache hits so warm
/// and cold executions dedup apart.
template <typename T, typename Fill>
inline void note_record(const char* engine, const char* direction,
                        int threads, bool from_cache, scratch_rung rung,
                        Fill&& fill) {
  if (telemetry::current_sink() != nullptr) {
    // Predict the pool this request would get WITHOUT touching the
    // OpenMP runtime.  The old probe constructed a thread_count_guard,
    // whose omp_set_num_threads mutates global state: two concurrent
    // telemetry-enabled transposes raced, and one could observe (or run
    // its parallel region with) the other's probe value.
    const util::thread_probe probe = util::probe_thread_count(threads);
    telemetry::plan_record rec;
    rec.engine = engine;
    rec.direction = direction;
    rec.elem_size = sizeof(T);
    rec.threads_requested = probe.requested;
    rec.threads_active = probe.active;
    rec.threads_honored = probe.honored;
    rec.from_cache = from_cache;
    rec.rung = rung_name(rung);
    fill(rec);
    telemetry::note_plan(rec);
  }
}

/// The 2-D plan record of an execution about to run.
template <typename T>
inline void note_plan_record(const transpose_plan& plan,
                             bool from_cache = false) {
  note_record<T>(engine_name(plan.engine), direction_name(plan.dir),
                 plan.threads, from_cache, plan.rung,
                 [&plan](telemetry::plan_record& rec) {
                   rec.m = plan.m;
                   rec.n = plan.n;
                   rec.block_width = plan.block_width;
                   rec.strength_reduction = plan.strength_reduction;
                   rec.kernel_tier =
                       plan.tile_block != 0
                           ? kernels::tier_name_inreg(plan.ktier)
                           : kernels::tier_name(plan.ktier);
                 });
}

// --- scratch acquisition -----------------------------------------------------

/// Element types the in-register tile tier can reinterpret as lane chunks.
template <typename T>
inline constexpr bool tile_eligible =
    std::is_trivially_copyable_v<T> && (sizeof(T) == 4 || sizeof(T) == 8);

/// The chunk-grid scratch of an in-register tile plan
/// (plan.tile_block != 0): the element matrix is reinterpreted as an
/// (m / W) x n grid of W-element lane_chunks that the skinny passes run
/// on (cpu/kernels/tile_inreg.hpp has the factorization).  W is part of
/// lane_chunk's type, so the arena holds the scratch behind this base and
/// the tile passes, instantiated per W, cast back.
struct tile_scratch_base {
  tile_scratch_base() = default;
  tile_scratch_base(const tile_scratch_base&) = delete;
  tile_scratch_base& operator=(const tile_scratch_base&) = delete;
  virtual ~tile_scratch_base() = default;
  /// Bytes retained by the chunk workspace and cycle memo.
  [[nodiscard]] virtual std::size_t cached_bytes() const = 0;
};

template <typename T, unsigned W>
struct tile_scratch final : tile_scratch_base {
  using chunk = kernels::lane_chunk<T, W>;

  explicit tile_scratch(const transpose_plan& plan) : mm(plan.m / W, plan.n) {
    reserve_skinny(ws, plan.m / W, plan.n, plan.threads);
  }

  [[nodiscard]] std::size_t cached_bytes() const override {
    return ws.bytes() + memo.bytes();
  }

  transpose_math<fast_divmod> mm;  ///< chunk-grid math: (m / W) x n
  workspace<chunk> ws;
  cycle_memo memo;
};

/// Builds the chunk scratch for a tile plan, dispatching plan.tile_block
/// to the compile-time chunk width.  Returns null when T cannot take the
/// tile path (wrong size or not trivially copyable — possible only for a
/// plan built with a mismatched elem_size) or the width is unknown; the
/// caller demotes to the scratch-line path.  Propagates std::bad_alloc
/// from the chunk workspace.
template <typename T>
std::unique_ptr<tile_scratch_base> make_tile_scratch(
    const transpose_plan& plan) {
  if constexpr (tile_eligible<T>) {
    // inplace-lint: allow-block(raw-alloc): acquisition-funnel extension —
    // acquire_scratch's tile rung allocates the chunk workspace through
    // here, once per plan, inside the same bad_alloc demotion ladder as
    // the element workspaces
    switch (plan.tile_block) {
      case 2:
        return std::make_unique<tile_scratch<T, 2>>(plan);
      case 4:
        return std::make_unique<tile_scratch<T, 4>>(plan);
      case 8:
        return std::make_unique<tile_scratch<T, 8>>(plan);
      case 16:
        return std::make_unique<tile_scratch<T, 16>>(plan);
      default:
        return nullptr;
    }
    // inplace-lint: end-block
  } else {
    return nullptr;
  }
}

/// The scratch an execution owns: at most one of the three members is
/// engaged (pool for the blocked engine, ws for reference/skinny, tile
/// for in-register tile plans); all stay empty on the cycle_follow rung
/// and for degenerate shapes.
template <typename T>
struct scratch_bundle {
  std::optional<workspace<T>> ws;
  std::optional<workspace_pool<T>> pool;
  std::unique_ptr<tile_scratch_base> tile;
};

/// Acquires engine scratch for `plan`, walking the OOM degradation
/// ladder on std::bad_alloc:
///
///   full         — Theorem 6 scratch, one workspace per thread
///   reduced      — serial (threads = 1), minimum sub-row width, a
///                  single workspace
///   cycle_follow — no scratch at all; the executor dispatches to the
///                  cycle walker's O(1)-space leader-min rung
///                  (run_cycle_follow) instead of the planned engine
///
/// Demotion rewrites the plan to match (rung, threads, block_width), so
/// everything downstream — engines, telemetry, cached_bytes — sees a
/// self-consistent plan.  Exceptions other than bad_alloc (including
/// injected_fault from the failpoints below) propagate untouched, with
/// the caller's buffer untouched too: nothing has run yet.
template <typename T>
scratch_bundle<T> acquire_scratch(transpose_plan& plan) {
  scratch_bundle<T> bundle;
  if (plan.m <= 1 || plan.n <= 1) {
    return bundle;
  }
  if (plan.tile_block != 0) {
    // Tile rung: the chunk workspace replaces (not supplements) the
    // element workspace.  If it cannot be allocated, clear tile_block and
    // fall through to the ordinary ladder — the scratch-line skinny path
    // is the documented demotion target.
    try {
      INPLACE_FAILPOINT("exec.alloc.full");
      bundle.tile = make_tile_scratch<T>(plan);
    } catch (const std::bad_alloc&) {
      bundle.tile.reset();
    }
    if (bundle.tile != nullptr) {
      plan.rung = scratch_rung::full;
      return bundle;
    }
    plan.tile_block = 0;
  }
  try {
    INPLACE_FAILPOINT("exec.alloc.full");
    if (plan.engine == engine_kind::blocked) {
      bundle.pool.emplace(plan.m, plan.n, plan.block_width, plan.threads);
    } else {
      bundle.ws.emplace();
      if (plan.engine == engine_kind::skinny) {
        reserve_skinny(*bundle.ws, plan.m, plan.n, plan.threads);
      } else {
        bundle.ws->reserve(plan.m, plan.n, plan.block_width);
      }
    }
    plan.rung = scratch_rung::full;
    return bundle;
  } catch (const std::bad_alloc&) {
    bundle.ws.reset();
    bundle.pool.reset();
  }
  try {
    INPLACE_FAILPOINT("exec.alloc.reduced");
    plan.threads = 1;
    if (plan.engine == engine_kind::blocked) {
      plan.block_width = 4;  // the planner's floor — minimum sub-row
      bundle.pool.emplace(plan.m, plan.n, plan.block_width,
                          serial_workspace_tag{});
    } else {
      bundle.ws.emplace();
      if (plan.engine == engine_kind::skinny) {
        reserve_skinny(*bundle.ws, plan.m, plan.n, plan.threads);
      } else {
        plan.block_width = 4;
        bundle.ws->reserve(plan.m, plan.n, plan.block_width);
      }
    }
    plan.rung = scratch_rung::reduced;
    return bundle;
  } catch (const std::bad_alloc&) {
    bundle.ws.reset();
    bundle.pool.reset();
  }
  // Last rung: no allocation at all.  The failpoint lets tests forbid
  // even this rung, proving the caller's buffer survives a full ladder
  // failure untouched.
  INPLACE_FAILPOINT("exec.rung.cycle_follow");
  plan.threads = 1;
  plan.rung = scratch_rung::cycle_follow;
  return bundle;
}

/// Executes a cycle_follow-rung plan: the strictly in-place directed
/// permutation, serial, no scratch — the walker's leader-min rung over
/// the linear map l -> l*mult mod (mn-1), the paper introduction's
/// cycle-following baseline (Dudek et al.'s problem class).  C2R gathers
/// with mult = n, R2C with mult = m: n*m = 1 mod (mn-1), so the two maps
/// are mutually inverse (Theorem 2's composition identity); 0 and mn-1
/// are fixed.
template <typename T>
void run_cycle_follow(T* data, const transpose_plan& plan) {
  const std::uint64_t wrap = plan.m * plan.n - 1;
  const std::uint64_t mult = plan.dir == direction::c2r ? plan.n : plan.m;
  const auto src = [wrap, mult](std::uint64_t l) { return l * mult % wrap; };
  visited_map none;
  element_mover<T> mv(data);
  discover_cycles(wrap, src, none,
                  [&](std::uint64_t y) { move_cycle(mv, src, y, wrap); });
}

// --- the pass pipeline -------------------------------------------------------

/// Everything one transposer owns that its passes touch: the plan, the
/// index math, the scratch acquire_scratch returned, and the memoized
/// cycle leaders.  Passes receive the arena by reference at call time,
/// so a pass list holds no pointer into it and the arena moves freely
/// (nd_transposer keeps transposers in a vector).
template <typename T>
struct arena {
  transpose_plan plan;
  const kernels::kernel_set* ks = nullptr;  ///< the plan's resolved tier
  std::optional<transpose_math<fast_divmod>> fast_math;
  std::optional<transpose_math<plain_divmod>> plain_math;
  std::optional<workspace<T>> ws;           ///< reference / skinny
  std::optional<workspace_pool<T>> pool;    ///< blocked
  std::unique_ptr<tile_scratch_base> tile;  ///< in-register tile plans
  cycle_memo memo;                          ///< skinny row-permutation cycles
  col_cycle_memo col_memo;                  ///< blocked column-shuffle cycles

  template <typename Math>
  [[nodiscard]] const Math& math() const {
    if constexpr (std::is_same_v<Math, transpose_math<fast_divmod>>) {
      return *fast_math;
    } else {
      return *plain_math;
    }
  }
};

/// One invertible pass.  `body(data, a, dir, tuned)` runs the pass in
/// direction `dir`; its inverse is the same body in the opposite
/// direction.  Forward execution is tuned: the plan's kernel tier,
/// non-temporal streaming and cycle memos.  Rollback is not — kernels
/// off, no streaming, no memo (the inverse's cycles differ from the
/// forward memo), portable tile hooks — because it is a cold path where
/// simplicity beats throughput, and its correctness must not depend on
/// the ISA dispatch that was running when the failure hit.
template <typename T>
struct pass {
  void (*body)(T* data, arena<T>& a, direction dir, bool tuned) = nullptr;
  telemetry::stage stage = telemetry::stage::total;
  const char* name = "";  ///< boundary failpoint suffix: after_<name>
};

/// A plan's passes in execution order.
template <typename T>
struct pass_list {
  std::array<pass<T>, 3> at{};
  std::size_t size = 0;

  [[nodiscard]] const pass<T>* begin() const { return at.data(); }
  [[nodiscard]] const pass<T>* end() const { return at.data() + size; }
};

/// Orders an engine's passes, given in C2R order, for `dir`: R2C runs the
/// same passes reversed.  Passes with a null body (a pre-rotation the
/// shape does not need) are dropped.
template <typename T>
pass_list<T> in_order(direction dir, std::initializer_list<pass<T>> c2r) {
  pass_list<T> list;
  for (const pass<T>& p : c2r) {
    if (p.body != nullptr) {
      list.at[list.size++] = p;
    }
  }
  if (dir == direction::r2c) {
    std::reverse(list.at.begin(), list.at.begin() + list.size);
  }
  return list;
}

/// Algorithm 1's passes over one scratch line (cpu/engine_reference.hpp).
/// Already kernel-free, so tuned and untuned runs coincide.
template <typename T, typename Math>
struct reference_passes {
  static void prerotate(T* d, arena<T>& a, direction dir, bool /*tuned*/) {
    if (dir == direction::c2r) {
      reference_prerotate(d, a.template math<Math>(), *a.ws);
    } else {
      reference_prerotate_inv(d, a.template math<Math>(), *a.ws);
    }
  }
  static void row_shuffle(T* d, arena<T>& a, direction dir, bool /*tuned*/) {
    if (dir == direction::c2r) {
      reference_row_scatter(d, a.template math<Math>(), *a.ws);
    } else {
      reference_row_gather(d, a.template math<Math>(), *a.ws);
    }
  }
  static void col_shuffle(T* d, arena<T>& a, direction dir, bool /*tuned*/) {
    if (dir == direction::c2r) {
      reference_col_shuffle(d, a.template math<Math>(), *a.ws);
    } else {
      reference_col_shuffle_inv(d, a.template math<Math>(), *a.ws);
    }
  }
};

/// The blocked engine's passes over the per-thread pool
/// (cpu/engine_blocked.hpp).  run_passes installs the plan's team.
template <typename T, typename Math>
struct blocked_passes {
  struct operands {
    const Math& mm;
    workspace_pool<T>& pool;
    std::uint64_t width;
    const kernels::kernel_set* ks;
    bool stream;  ///< group-local stores (blocked_stream_group)
  };
  static operands view(arena<T>& a, bool tuned) {
    return {a.template math<Math>(), *a.pool, a.plan.block_width,
            tuned ? a.ks : nullptr,
            tuned && blocked_stream_group<T>(a.plan)};
  }

  static void prerotate(T* d, arena<T>& a, direction dir, bool tuned) {
    const operands o = view(a, tuned);
    if (dir == direction::c2r) {
      rotate_all_parallel(
          d, o.mm.m, o.mm.n, o.width,
          [&](std::uint64_t j) { return o.mm.prerotate_offset(j); }, o.pool,
          o.ks, o.stream);
    } else {
      rotate_all_parallel(
          d, o.mm.m, o.mm.n, o.width,
          [&](std::uint64_t j) { return o.mm.prerotate_inv_offset(j); },
          o.pool, o.ks, o.stream);
    }
  }
  static void row_shuffle(T* d, arena<T>& a, direction dir, bool tuned) {
    const operands o = view(a, tuned);
    // Row copy-backs never stream: the shuffle just read the row, so its
    // lines sit in cache in exclusive state and a temporal write-back is
    // free of RFO traffic — NT stores only add store-path overhead here
    // (measured ~15% slower on the row pass of a 320 MiB double matrix).
    if (dir == direction::c2r) {
      c2r_row_pass(d, o.mm, o.pool, o.ks, /*stream=*/false);
    } else {
      r2c_row_pass(d, o.mm, o.pool, o.ks, /*stream=*/false);
    }
  }
  static void col_shuffle(T* d, arena<T>& a, direction dir, bool tuned) {
    const operands o = view(a, tuned);
    col_cycle_memo* memo = tuned ? &a.col_memo : nullptr;
    if (dir == direction::c2r) {
      c2r_col_shuffle(d, o.mm, o.width, o.pool, memo, o.ks, o.stream);
    } else {
      r2c_col_shuffle(d, o.mm, o.width, o.pool, memo, o.ks, o.stream);
    }
  }
};

/// The skinny engine's passes (cpu/skinny.hpp) over elements (W == 1) or,
/// for an in-register tile plan, over the arena's W-lane chunk grid.
template <typename T, typename Math, unsigned W>
struct skinny_passes {
  using elem = std::conditional_t<W == 1, T, kernels::lane_chunk<T, W>>;
  using math = std::conditional_t<W == 1, Math, transpose_math<fast_divmod>>;

  struct operands {
    elem* a;
    const math& mm;
    workspace<elem>& ws;
    cycle_memo* memo;
    const kernels::kernel_set* ks;
    bool stream;
  };
  static operands view(T* d, arena<T>& a, bool tuned) {
    const kernels::kernel_set* ks = tuned ? a.ks : nullptr;
    if constexpr (W == 1) {
      return {d,
              a.template math<Math>(),
              *a.ws,
              tuned ? &a.memo : nullptr,
              ks,
              tuned && skinny_stream_ok<T>(a.plan.n, a.plan.streaming_stores)};
    } else {
      auto& s = static_cast<tile_scratch<T, W>&>(*a.tile);
      INPLACE_REQUIRE(a.plan.tile_block == W && a.plan.m == s.mm.m * W &&
                          a.plan.n == s.mm.n,
                      "tile scratch shape does not match the plan");
      return {reinterpret_cast<elem*>(d),
              s.mm,
              s.ws,
              tuned ? &s.memo : nullptr,
              ks,
              tuned && skinny_stream_ok<elem>(s.mm.n, a.plan.streaming_stores)};
    }
  }

  static void fused_row(T* d, arena<T>& a, direction dir, bool tuned) {
    const operands o = view(d, a, tuned);
    const bool c2r = dir == direction::c2r;
    const auto run = [&](auto block) {
      if (c2r) {
        skinny_fused_scatter(o.a, o.mm, o.ws, o.ks, o.stream, block);
      } else {
        skinny_fused_gather(o.a, o.mm, o.ws, o.ks, o.stream, block);
      }
    };
    if constexpr (W == 1) {
      run(no_block_transform{});
    } else if (tuned) {
      INPLACE_CHECK(kernels::tile_lanes<T>(*o.ks) == W,
                    "plan's kernel tier lost its tile pass after planning");
      // The tile pass rides the row pass as its block hook: forward
      // (static_r2c<n, W>) before the C2R scatter consumes each W x n
      // slab, inverse (static_c2r) after the R2C gather assembles each
      // row.  Pairing each direction with its inverse hook keeps the two
      // directions exact inverses.
      run([ks = o.ks, nregs = a.plan.n, c2r](elem* rows, std::uint64_t k) {
        kernels::tile_pass<T>(*ks, reinterpret_cast<T*>(rows), nregs, k,
                              /*forward=*/c2r);
      });
    } else {
      // Portable hooks: rollback must not depend on the tier that planned
      // the run.
      run([nregs = a.plan.n, c2r](elem* rows, std::uint64_t k) {
        kernels::tile_pass_portable(reinterpret_cast<T*>(rows), nregs, W, k,
                                    /*forward=*/c2r);
      });
    }
  }
  static void rotation(T* d, arena<T>& a, direction dir, bool tuned) {
    const operands o = view(d, a, tuned);
    if (dir == direction::c2r) {
      skinny_rotate_p(o.a, o.mm, o.ws, o.ks, o.stream);
    } else {
      skinny_rotate_p_inv(o.a, o.mm, o.ws, o.ks, o.stream);
    }
  }
  static void permute(T* d, arena<T>& a, direction dir, bool tuned) {
    const operands o = view(d, a, tuned);
    if (dir == direction::c2r) {
      skinny_permute_q(o.a, o.mm, o.ws, o.memo, o.ks, o.stream);
    } else {
      skinny_permute_q_inv(o.a, o.mm, o.ws, o.memo, o.ks, o.stream);
    }
  }
};

/// Reference and blocked: the three passes of Algorithm 1.
template <typename T, typename P>
pass_list<T> algorithm1_passes(direction dir, bool prerotate) {
  using telemetry::stage;
  return in_order<T>(dir, {{prerotate ? &P::prerotate : nullptr,
                            stage::prerotate, "prerotate"},
                           {&P::row_shuffle, stage::row_shuffle, "row_shuffle"},
                           {&P::col_shuffle, stage::col_shuffle, "col_shuffle"}});
}

/// Skinny: the row pass fused with the pre-rotation, then the column
/// shuffle split into its rotation and row-permutation components.
template <typename T, typename P>
pass_list<T> skinny_pass_list(direction dir) {
  using telemetry::stage;
  return in_order<T>(dir, {{&P::fused_row, stage::row_shuffle, "fused_row"},
                           {&P::rotation, stage::col_shuffle, "rotation"},
                           {&P::permute, stage::col_shuffle, "permute"}});
}

/// Lowers a resolved plan whose arena holds its scratch to the plan's
/// pass list.  A plan still carrying engine_kind::automatic is forged or
/// corrupted (make_plan/make_directed_plan resolve it): refuse it loudly
/// instead of silently picking an engine.
template <typename T, typename Math>
pass_list<T> lower_passes(const arena<T>& a) {
  const transpose_plan& plan = a.plan;
  switch (plan.engine) {
    case engine_kind::reference:
      return algorithm1_passes<T, reference_passes<T, Math>>(
          plan.dir, a.template math<Math>().needs_prerotate());
    case engine_kind::blocked:
      return algorithm1_passes<T, blocked_passes<T, Math>>(
          plan.dir, a.template math<Math>().needs_prerotate());
    case engine_kind::skinny:
      if constexpr (tile_eligible<T>) {
        using F = transpose_math<fast_divmod>;
        switch (plan.tile_block) {
          case 2:
            return skinny_pass_list<T, skinny_passes<T, F, 2>>(plan.dir);
          case 4:
            return skinny_pass_list<T, skinny_passes<T, F, 4>>(plan.dir);
          case 8:
            return skinny_pass_list<T, skinny_passes<T, F, 8>>(plan.dir);
          case 16:
            return skinny_pass_list<T, skinny_passes<T, F, 16>>(plan.dir);
          default:
            break;
        }
      }
      return skinny_pass_list<T, skinny_passes<T, Math, 1>>(plan.dir);
    case engine_kind::automatic:
      break;
  }
  INPLACE_CHECK(false, "unresolved engine_kind::automatic reached the executor");
  throw error(
      "inplace: plan with unresolved engine_kind::automatic reached the "
      "executor (plans must come from make_plan/make_directed_plan/"
      "make_plan_for_shape)");
}

/// The failpoint at the boundary after pass `pass`:
/// "<engine>.<dir>.after_<pass>" (e.g. "blocked.c2r.after_row_shuffle").
[[nodiscard]] inline std::string boundary_name(const transpose_plan& plan,
                                               const char* pass) {
  return std::string(engine_name(plan.engine)) + "." +
         direction_name(plan.dir) + ".after_" + pass;
}

// --- the stage loop ----------------------------------------------------------

/// The direction that undoes `dir`.
[[nodiscard]] constexpr direction inverse_of(direction dir) {
  return dir == direction::c2r ? direction::r2c : direction::c2r;
}

/// Undoes the first `done` stages of a list run in direction `dir`, in
/// reverse order, each body untuned in the opposite direction.
/// Best-effort by design: if an inverse itself fails, the buffer is left
/// at a stage boundary — the documented "unrecoverable" row of the
/// failure taxonomy (DESIGN.md §11).  Never throws.
template <typename Stages>
void rollback_passes(Stages& stages, std::size_t done,
                     direction dir) noexcept {
  try {
    while (done > 0) {
      stages.run(--done, inverse_of(dir), /*tuned=*/false);
    }
  } catch (...) {
    // Swallowed: the original exception (in flight in the caller) is the
    // one the user must see; a failed rollback downgrades the guarantee
    // from "restored" to "left at a stage boundary", never hides errors.
  }
}

/// The one stage loop: transposer's 2-D passes, nd_transposer's tensor
/// passes and slabs, permuter's stages.  A stage list provides size();
/// run(k, dir, tuned), whose inverse is the same body in the opposite
/// direction (c2r means "as planned" where there is no C2R/R2C reading);
/// boundary(k), the failpoint where stages [0, k) are complete, k in
/// [0, size()]; and optionally span(k), stage k's telemetry::span_spec
/// (asked for only while a sink is installed), and restores(k), true when
/// stage k is itself a stage loop.  Forward runs are tuned.
///
/// A throw at a boundary rolls the completed stages back before it
/// continues.  The mid-stage rule: a throw from inside a stage that
/// restores itself counts as one at the boundary before it; any other
/// stage is left half-applied, which no sequence of inverses undoes, so
/// the buffer is left as-is.  Such stages are allocation-free loop code
/// with no failpoints, so in practice every throw lands at a boundary.
template <typename Stages>
void run_passes(Stages& stages, direction dir) {
  const std::size_t count = stages.size();
  std::size_t done = 0;
  bool in_stage = false;
  try {
    stages.boundary(0);
    while (done < count) {
      in_stage = true;
      if constexpr (requires { stages.span(done); }) {
        const telemetry::span stage_span{[&] { return stages.span(done); }};
        stages.run(done, dir, /*tuned=*/true);
      } else {
        stages.run(done, dir, /*tuned=*/true);
      }
      in_stage = false;
      stages.boundary(++done);
    }
  } catch (...) {
    bool at_boundary = !in_stage;
    if constexpr (requires { stages.restores(done); }) {
      at_boundary = at_boundary || stages.restores(done);
    }
    if (at_boundary) {
      rollback_passes(stages, done, dir);
    }
    throw;
  }
}

/// A transposer arena's pass list as a stage list: a span of 2*m*n*elem
/// bytes per pass (Eq. 37 per pass) and "<engine>.<dir>.after_<pass>"
/// once the pass completes.
template <typename T>
struct pass_stages {
  T* data;
  arena<T>& a;
  const pass_list<T>& passes;
  std::optional<util::thread_count_guard> team;

  /// Blocked and skinny (tile plans included) arenas run their passes,
  /// and the inverses, on the plan's team.  A pool grows to cover it (a
  /// no-op after a forward run); a skinny workspace caps the team at the
  /// slots reserve_skinny sized, so nothing allocates here.
  pass_stages(T* d, arena<T>& ar, const pass_list<T>& list)
      : data(d), a(ar), passes(list) {
    if (a.pool || a.plan.engine == engine_kind::skinny) {
      team.emplace(a.plan.threads);
    }
    if (a.pool) {
      a.pool->ensure(util::hardware_threads());
    }
  }

  [[nodiscard]] std::size_t size() const { return passes.size; }
  void run(std::size_t k, direction dir, bool tuned) {
    passes.at[k].body(data, a, dir, tuned);
  }
  void boundary(std::size_t k) const {
    if (k > 0) {
      // The name is built only while some failpoint is armed.
      INPLACE_FAILPOINT(boundary_name(a.plan, passes.at[k - 1].name).c_str());
    }
  }
  [[nodiscard]] telemetry::span_spec span(std::size_t k) const {
    return {passes.at[k].stage, 2 * a.plan.m * a.plan.n * sizeof(T), 0};
  }
};

}  // namespace detail

/// Reusable in-place transposition executor for one fixed shape.
///
/// Not thread-safe: one transposer instance must not execute on two
/// threads at once (the workspaces and cycle memos are exclusive to one
/// execution).  transpose_context hands out distinct instances to
/// concurrent callers.
template <typename T>
class transposer {
 public:
  /// Plans the transposition of a rows x cols matrix in `order`.
  transposer(std::size_t rows, std::size_t cols,
             storage_order order = storage_order::row_major,
             const options& opts = {})
      : transposer(make_plan_for_shape(rows, cols, order, opts, sizeof(T))) {}

  /// Adopts an already-resolved plan (transpose_context caches the plan
  /// per shape and constructs arenas from it directly, skipping repeated
  /// planning).  The plan must come from make_plan/make_directed_plan/
  /// make_plan_for_shape — lowering refuses unresolved engines.
  /// Scratch acquisition walks the OOM degradation ladder (see
  /// detail::acquire_scratch); plan().rung reports where it landed.
  explicit transposer(const transpose_plan& plan) {
    a_.plan = plan;
    if (plan.m <= 1 || plan.n <= 1) {
      return;
    }
    a_.ks = &kernels::set_for(plan.ktier);
    if (plan.strength_reduction) {
      a_.fast_math.emplace(plan.m, plan.n);
    } else {
      a_.plain_math.emplace(plan.m, plan.n);
    }
    detail::scratch_bundle<T> scratch = detail::acquire_scratch<T>(a_.plan);
    a_.ws = std::move(scratch.ws);
    a_.pool = std::move(scratch.pool);
    a_.tile = std::move(scratch.tile);
    if (a_.plan.rung != scratch_rung::cycle_follow) {
      passes_ = plan.strength_reduction
                    ? detail::lower_passes<T, transpose_math<fast_divmod>>(a_)
                    : detail::lower_passes<T, transpose_math<plain_divmod>>(a_);
    }
  }

  [[nodiscard]] const transpose_plan& plan() const { return a_.plan; }

  /// True when scratch acquisition landed below scratch_rung::full (the
  /// OOM degradation ladder engaged while building this arena).  Part of
  /// the arena interface transpose_context::run_cached consumes.
  [[nodiscard]] bool degraded() const {
    return a_.plan.rung != scratch_rung::full;
  }

  /// Transposes one matrix in place.  `data` must have the planned shape.
  void operator()(T* data) { execute(data, /*from_cache=*/false); }

  /// operator() with an explicit telemetry provenance flag:
  /// transpose_context passes from_cache=true when this arena was reused
  /// from its cache, so warm and cold executions separate in the
  /// collector's plan dedup table.
  void execute(T* data, bool from_cache) {
    const transpose_plan& plan = a_.plan;
    if (plan.m <= 1 || plan.n <= 1) {
      // Degenerate shapes transpose to the identical buffer, but they are
      // still executions — record the plan and the total span so bench
      // JSON does not silently undercount 1 x n / m x 1 calls.
      detail::note_plan_record<T>(plan, from_cache);
      const telemetry::span span_total{telemetry::stage::total,
                                       2 * plan.m * plan.n * sizeof(T), 0};
      return;
    }
    if (plan.rung == scratch_rung::cycle_follow) {
      // Construction could not obtain even the reduced scratch: run the
      // strictly in-place O(1)-space fallback instead of the planned
      // engine (no workspaces exist to hand it).
      detail::note_plan_record<T>(plan, from_cache);
      const telemetry::span span_total{telemetry::stage::total,
                                       2 * plan.m * plan.n * sizeof(T), 0};
      detail::run_cycle_follow(data, plan);
      return;
    }
    INPLACE_REQUIRE(data != nullptr, "transposer invoked with null data");
    // The precomputed index math and scratch must match the plan they were
    // sized for; a mismatch here means the executor state was corrupted.
    INPLACE_CHECK(a_.fast_math ? a_.fast_math->m == plan.m &&
                                     a_.fast_math->n == plan.n
                               : a_.plain_math->m == plan.m &&
                                     a_.plain_math->n == plan.n,
                  "index math shape does not match the plan");
    INPLACE_CHECK(!a_.ws || a_.ws->line.size() >=
                                (plan.engine == engine_kind::skinny
                                     ? plan.n
                                     : std::max(plan.m, plan.n)),
                  "workspace line smaller than the engine's scratch bound "
                  "(skinny: n; otherwise Theorem 6's max(m, n))");
    detail::note_plan_record<T>(plan, from_cache);
    const telemetry::span span_total{[&] {
      return telemetry::span_spec{telemetry::stage::total,
                                  2 * plan.m * plan.n * sizeof(T),
                                  plan.scratch_elements() * sizeof(T)};
    }};
    detail::pass_stages<T> stages(data, a_, passes_);
    detail::run_passes(stages, plan.dir);
  }

  /// Undoes one completed execution on `data` — the passes inverted,
  /// untuned, in reverse (Theorems 1-2), or the cycle_follow rung's
  /// opposite map — on this arena's scratch, acquiring none.
  void undo(T* data) {
    if (a_.plan.rung == scratch_rung::cycle_follow) {
      transpose_plan inverse = a_.plan;
      inverse.dir = detail::inverse_of(inverse.dir);
      detail::run_cycle_follow(data, inverse);
      return;
    }
    detail::pass_stages<T> stages(data, a_, passes_);
    detail::rollback_passes(stages, stages.size(), a_.plan.dir);
  }

  /// Approximate bytes retained by this executor's cached state (scratch
  /// arenas plus memoized cycle leaders).  transpose_context uses it to
  /// bound the total memory its arena cache pins.
  [[nodiscard]] std::size_t cached_bytes() const {
    const auto per_ws =
        static_cast<std::size_t>(a_.plan.scratch_elements()) * sizeof(T);
    // On the cycle_follow rung neither scratch member exists: the arena
    // retains only the (empty) memo capacity.
    std::size_t total = a_.ws ? a_.ws->bytes() : 0;
    if (a_.pool) {
      total = per_ws * std::max<std::size_t>(1, a_.pool->size());
    }
    if (a_.tile) {
      total += a_.tile->cached_bytes();
    }
    total += a_.memo.bytes();
    for (const auto& g : a_.col_memo.groups) {
      total += g.starts.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

 private:
  detail::arena<T> a_;
  detail::pass_list<T> passes_;
};

/// Transposes `batch` contiguous, equally shaped rows x cols matrices in
/// place (data[k * rows * cols] starts matrix k).  Plans once; reuses
/// scratch across the batch.
template <typename T>
void transpose_batched(T* data, std::size_t batch, std::size_t rows,
                       std::size_t cols,
                       storage_order order = storage_order::row_major,
                       const options& opts = {}) {
  if (batch == 0) {
    return;
  }
  // checked_extent covers one matrix; the whole batch must also address
  // within size_t, in elements (the k * stride offsets below) *and* in
  // bytes — batch * rows * cols * sizeof(T) — or the offsets wrap and the
  // loop scribbles over low memory.
  const std::size_t stride = detail::checked_extent(data, rows, cols);
  constexpr std::size_t size_max = std::numeric_limits<std::size_t>::max();
  if (stride != 0 && batch > size_max / stride) {
    throw error("inplace: batch*rows*cols overflows size_t (" +
                std::to_string(batch) + " x " + std::to_string(rows) +
                " x " + std::to_string(cols) + ")");
  }
  const std::size_t total = batch * stride;
  if (total > size_max / sizeof(T)) {
    throw error("inplace: batched byte extent overflows size_t (" +
                std::to_string(total) + " elements of " +
                std::to_string(sizeof(T)) + " bytes)");
  }
  INPLACE_REQUIRE(stride == 0 || total / stride == batch,
                  "batched extent product must not wrap size_t");
  transposer<T> tr(rows, cols, order, opts);
  for (std::size_t k = 0; k < batch; ++k) {
    tr(data + k * stride);
  }
}

}  // namespace inplace
