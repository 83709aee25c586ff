#include "core/plan.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "core/errors.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/threads.hpp"

namespace inplace {

std::uint64_t transpose_plan::scratch_elements() const {
  if (tile_block != 0) {
    // Tile plans run the skinny engine over (m / W) x n chunks of W
    // elements: a line of max(m/W, n) chunks, an n^2-chunk head buffer
    // and an n-chunk sub-row, all W elements wide.  Still >= max(m, n)
    // (the line alone covers m), so Theorem 6's bound holds.
    const std::uint64_t chunk_rows = m / tile_block;
    const std::uint64_t line = std::max(chunk_rows, n);
    return (line + n * n + n) * tile_block;
  }
  const std::uint64_t line = std::max(m, n);
  return line + fine_head_elements(m, block_width) + block_width;
}

std::size_t derived_block_bytes(std::uint64_t m, std::uint64_t n,
                                std::size_t elem_size, engine_kind engine,
                                int threads) {
  constexpr std::size_t line_scale = 256;
  const std::size_t l2 = kernels::probed_caches().l2_bytes;
  if (engine != engine_kind::blocked || m * line_scale <= l2) {
    return line_scale;
  }
  const std::uint64_t team = static_cast<std::uint64_t>(
      std::max(1, threads > 0 ? threads : util::hardware_threads()));
  std::size_t w = line_scale;
  while (std::max<std::size_t>(1, 2 * w / elem_size) * (2 * w) <= l2 / 4 &&
         2 * team * (2 * w) <= n * elem_size) {
    w *= 2;
  }
  return w;
}

transpose_plan make_directed_plan(const void* data, std::size_t m,
                                  std::size_t n, direction dir,
                                  const options& opts,
                                  std::size_t elem_size) {
  detail::checked_extent(data, m, n);
  if (elem_size == 0) {
    throw error("inplace: zero element size");
  }

  transpose_plan plan;
  plan.dir = dir;
  plan.m = m;
  plan.n = n;
  plan.threads = opts.threads;

  plan.engine = opts.engine;
  if (plan.engine == engine_kind::automatic) {
    plan.engine = (plan.n <= skinny_col_limit && plan.m > plan.n)
                      ? engine_kind::skinny
                      : engine_kind::blocked;
  }
  if (plan.engine == engine_kind::skinny &&
      (plan.n > skinny_col_limit || plan.m <= plan.n)) {
    // The fused skinny passes assume a tall, narrow problem; quietly run
    // the blocked engine when forced onto an unsuitable shape.
    plan.engine = engine_kind::blocked;
  }

  // Sub-rows of a few cache lines, or page-scale ones for blocked plans
  // whose line-scale column groups spill L2 (Section 4.6;
  // derived_block_bytes), never narrower than four elements so the
  // head-buffer scheme stays worthwhile, and never wider than the
  // matrix: a group spans at most n columns.
  const std::size_t block_bytes =
      opts.block_bytes != 0 ? opts.block_bytes
                            : derived_block_bytes(plan.m, plan.n, elem_size,
                                                  plan.engine, plan.threads);
  plan.block_width = std::min<std::uint64_t>(
      std::max<std::uint64_t>(4, block_bytes / elem_size),
      std::max<std::uint64_t>(1, plan.n));

  // Hot-path kernel dispatch happens here, once per plan: resolve the
  // requested tier against the environment override, the running CPU and
  // the tiers compiled into this binary, then decide whether the working
  // set is large enough for non-temporal copy-back stores to pay off.
  plan.ktier = kernels::resolve_tier(opts.kernel);
  plan.streaming_stores = kernels::streaming_profitable(
      static_cast<std::size_t>(plan.m) * plan.n * elem_size, plan.ktier);

  // In-register tile gate.  Correctness part: skinny engine (the chunked
  // run reuses the fused skinny passes), a 4/8-byte element whose lane
  // width the tier implements and divides m, and n within both
  // [2, max_regs] (one register per matrix column).  Profitability part:
  // the chunked problem must stay tall (m/W > n) so the fused passes keep
  // their streaming shape — dropped under INPLACE_FORCE_KERNEL_TIER=inreg
  // so tests can force the path onto any eligible small shape.
  plan.tile_block = 0;
  if (plan.engine == engine_kind::skinny &&
      opts.tile != options::tile_mode::off &&
      (elem_size == 4 || elem_size == 8)) {
    const kernels::kernel_set& ks = kernels::set_for(plan.ktier);
    const std::uint64_t lanes =
        elem_size == 4 ? ks.tile_lanes_u32 : ks.tile_lanes_u64;
    const std::uint64_t max_regs =
        elem_size == 4 ? ks.tile_max_regs_u32 : ks.tile_max_regs_u64;
    if (lanes >= 2 && plan.n >= 2 && plan.n <= max_regs &&
        plan.m % lanes == 0) {
      const std::uint64_t chunk_rows = plan.m / lanes;
      if (chunk_rows > plan.n || kernels::forced_tile_mode()) {
        plan.tile_block = lanes;
      }
    }
  }

  // Plan postconditions: the planner must resolve `automatic` to a
  // concrete engine (the executors refuse unresolved plans), must never
  // hand an engine a shape it cannot run, and the scratch sizing must
  // honor Theorem 6's bound.
  INPLACE_ENSURE(plan.engine != engine_kind::automatic,
                 "planner left engine_kind::automatic unresolved");
  INPLACE_ENSURE(plan.ktier != kernels::tier::automatic,
                 "planner left kernels::tier::automatic unresolved");
  INPLACE_ENSURE(kernels::tier_available(plan.ktier),
                 "planner selected a kernel tier the CPU or build cannot "
                 "execute");
  INPLACE_ENSURE(plan.engine != engine_kind::skinny ||
                     (plan.n <= skinny_col_limit && plan.m > plan.n),
                 "skinny engine selected for a non-skinny shape");
  INPLACE_ENSURE(plan.block_width >= std::min<std::uint64_t>(
                                         4, std::max<std::uint64_t>(1, plan.n)),
                 "sub-row width below the cache-aware minimum");
  INPLACE_ENSURE(plan.block_width <= std::max<std::uint64_t>(1, plan.n),
                 "sub-row width wider than the matrix");
  INPLACE_ENSURE(plan.scratch_elements() >= std::max(plan.m, plan.n),
                 "scratch sizing violates Theorem 6's max(m, n) bound");
  INPLACE_ENSURE(plan.tile_block == 0 ||
                     (plan.engine == engine_kind::skinny &&
                      plan.tile_block >= 2 && plan.n >= 2 &&
                      plan.m % plan.tile_block == 0),
                 "in-register tile selected outside its gate");
  return plan;
}

transpose_plan make_plan_for_shape(std::size_t rows, std::size_t cols,
                                   storage_order order, const options& opts,
                                   std::size_t elem_size) {
  // A dummy non-null pointer satisfies the pointer check; extents and
  // element size are validated as usual.
  return make_plan(reinterpret_cast<const void*>(sizeof(void*)), rows, cols,
                   order, opts, elem_size);
}

transpose_plan make_plan(const void* data, std::size_t rows,
                         std::size_t cols, storage_order order,
                         const options& opts, std::size_t elem_size) {
  // A column-major rows x cols buffer is bit-identical to a row-major
  // cols x rows buffer; normalize to the row-major view and transpose that
  // (Theorems 1-2 make both directions available either way).
  std::size_t vm = rows;
  std::size_t vn = cols;
  if (order == storage_order::col_major) {
    std::swap(vm, vn);
  }

  // Section 5.2's heuristic: C2R when m > n, else R2C.  The R2C form
  // transposes a row-major array after swapping the extents (Theorem 2).
  const bool use_c2r = opts.alg == options::algorithm::c2r ||
                       (opts.alg == options::algorithm::automatic && vm > vn);
  if (use_c2r) {
    return make_directed_plan(data, vm, vn, direction::c2r, opts, elem_size);
  }
  return make_directed_plan(data, vn, vm, direction::r2c, opts, elem_size);
}

}  // namespace inplace
