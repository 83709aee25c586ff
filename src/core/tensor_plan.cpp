#include "core/tensor_plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/failpoint.hpp"
#include "memsim/device_model.hpp"

namespace inplace::detail {

namespace {

/// Keeps the probe buffers (and the loops writing them) alive past the
/// optimizer: the asm consumes the pointer and claims to clobber memory,
/// so stores before it cannot be elided and loads after it cannot be
/// hoisted.  No-op fallback elsewhere — the probe then merely risks DCE
/// and the clamp below still bounds the damage.
inline void probe_barrier([[maybe_unused]] const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" ::"r"(p) : "memory");
#endif
}

/// L1 data-cache line size from sysconf, or 0 when unavailable.  The
/// [8, 256] clamp in calibrate() rejects the 0 and any exotic value a
/// container might report.
double probe_line_bytes() {
#if defined(_SC_LEVEL1_DCACHE_LINESIZE)
  const long ls = ::sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
  return ls > 0 ? static_cast<double>(ls) : 0.0;
#else
  return 0.0;
#endif
}

/// Times one streaming copy sweep and one strided per-row rotate-gather
/// sweep (the engines' dominant access pattern) over a ~128 KiB slab and
/// returns the strided/streaming ratio, or 0 on failure.  Deliberately
/// raw loops: the ratio calibrates the cost model's two access patterns,
/// so it times those patterns alone, not an engine run with its own
/// planning and kernel-tier choice.  Routing it through transposer<T>
/// would also instantiate the engines here with this TU's live
/// failpoints, a body that differs (ODR) from failpoint-off TUs'.
double probe_sweep_ratio() {
  constexpr std::size_t rows = 4096;
  constexpr std::size_t cols = 8;
  constexpr std::size_t total = rows * cols;
  constexpr int reps = 4;
  std::vector<float> src(total);
  std::vector<float> dst(total);
  for (std::size_t k = 0; k < total; ++k) {
    src[k] = static_cast<float>(k & 0xffffU);
  }
  using clock = std::chrono::steady_clock;
  double best_stream = std::numeric_limits<double>::infinity();
  double best_strided = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = clock::now();
    std::memcpy(dst.data(), src.data(), total * sizeof(float));
    probe_barrier(dst.data());
    const auto t1 = clock::now();
    // Column-major walk with a per-column row rotation: every element
    // moves, no two consecutive accesses share a row — the shape of the
    // skinny engine's rotation pass, minus its cache-aware grouping.
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        dst[r * cols + c] = src[((r + c) % rows) * cols + c];
      }
    }
    probe_barrier(dst.data());
    const auto t2 = clock::now();
    const std::chrono::duration<double> stream = t1 - t0;
    const std::chrono::duration<double> strided = t2 - t1;
    best_stream = std::min(best_stream, stream.count());
    best_strided = std::min(best_strided, strided.count());
  }
  if (!(best_stream > 0.0) || !std::isfinite(best_strided)) {
    return 0.0;  // clock too coarse or probe elided: fall back to static
  }
  return best_strided / best_stream;
}

/// Runs both probes with the static defaults as the starting point.
/// Never throws; each probe degrades independently.
tensor_calibration_values calibrate() {
  tensor_calibration_values cal;  // static defaults
  // inplace-lint: allow-next(env-access): documented opt-out knob
  // (INPLACE_TENSOR_CALIBRATION=static, README); exact string equality
  // against one literal — nothing to parse, no funnel value validation
  // applies, and any other value deliberately falls through to the probe
  if (const char* env = std::getenv("INPLACE_TENSOR_CALIBRATION");
      env != nullptr && std::strcmp(env, "static") == 0) {
    return cal;
  }
  bool probed = false;
  const double line = probe_line_bytes();
  if (line >= 8.0 && line <= 256.0) {
    cal.line_bytes = line;
    probed = true;
  }
  try {
    const double ratio = probe_sweep_ratio();
    if (ratio > 0.0) {
      // The probe's naive scalar rotation over-costs one fused engine
      // pass by roughly the engine's pass count, so the raw ratio stands
      // in for the whole multi-pass factor (it lands on ~7, the old
      // hand-calibrated constant, on the reference machine).  The clamp
      // keeps a noisy machine (or a TSan/valgrind run) from steering the
      // search off a cliff.
      cal.engine_sweeps = std::clamp(ratio, 2.0, 20.0);
      probed = true;
    }
  } catch (const std::bad_alloc&) {
    // Keep the static engine_sweeps; line_bytes may still be probed.
  }
  if (probed) {
    cal.provenance = "probed";
  }
  return cal;
}

}  // namespace

const tensor_calibration_values& tensor_calibration() {
  // Magic static: one probe per process, first planner pays it.
  static const tensor_calibration_values cal = calibrate();
  return cal;
}

void validate_nd_perm(std::span<const std::size_t> dims,
                      std::span<const int> perm) {
  if (dims.size() != perm.size()) {
    throw error("inplace: permute_nd dims/perm rank mismatch (" +
                std::to_string(dims.size()) + " vs " +
                std::to_string(perm.size()) + ")");
  }
  if (dims.size() > tensor_max_rank) {
    throw error("inplace: permute_nd rank " + std::to_string(dims.size()) +
                " exceeds tensor_max_rank (" +
                std::to_string(tensor_max_rank) + ")");
  }
  unsigned seen = 0;
  for (const int axis : perm) {
    if (axis < 0 || static_cast<std::size_t>(axis) >= perm.size()) {
      throw error("inplace: permute_nd axis " + std::to_string(axis) +
                  " out of range for rank " + std::to_string(perm.size()));
    }
    const unsigned bit = 1u << static_cast<unsigned>(axis);
    if ((seen & bit) != 0) {
      throw error("inplace: permute_nd axis " + std::to_string(axis) +
                  " repeated — perm must be a permutation of {0.." +
                  std::to_string(perm.size() - 1) + "}");
    }
    seen |= bit;
  }
}

nd_normalized normalize_nd(std::span<const std::size_t> dims,
                           std::span<const int> perm) {
  nd_normalized out;
  out.total = 1;
  for (const std::size_t d : dims) {
    out.total *= d;  // caller validated via checked_extent_nd
  }

  // 1. Drop unit extents: they contribute nothing to the layout.  `kept`
  // maps surviving input axes to compact labels 0..r-1 in input order.
  std::array<int, tensor_max_rank> kept{};
  kept.fill(-1);
  std::size_t r = 0;
  for (std::size_t a = 0; a < dims.size(); ++a) {
    if (dims[a] > 1) {
      kept[a] = static_cast<int>(r++);
    }
  }
  // Surviving extents in input order and the residual perm over them.
  std::array<std::uint64_t, tensor_max_rank> rdims{};
  std::array<std::uint8_t, tensor_max_rank> rperm{};
  for (std::size_t a = 0; a < dims.size(); ++a) {
    if (kept[a] >= 0) {
      rdims[static_cast<std::size_t>(kept[a])] = dims[a];
    }
  }
  std::size_t kpos = 0;
  for (const int axis : perm) {
    const int label = kept[static_cast<std::size_t>(axis)];
    if (label >= 0) {
      rperm[kpos++] = static_cast<std::uint8_t>(label);
    }
  }

  // 2. Fuse input-adjacent axes that remain adjacent (in order) under the
  // permutation: axes i and i+1 merge iff the output places i+1 directly
  // after i.  Groups are maximal runs, labelled in input order.
  std::array<std::size_t, tensor_max_rank> pos{};  // input axis -> output slot
  for (std::size_t k = 0; k < r; ++k) {
    pos[rperm[k]] = k;
  }
  std::array<std::uint8_t, tensor_max_rank> group{};
  std::size_t groups = 0;
  for (std::size_t i = 0; i < r; ++i) {
    if (i > 0 && pos[i] == pos[i - 1] + 1) {
      group[i] = group[i - 1];
    } else {
      group[i] = static_cast<std::uint8_t>(groups++);
    }
  }
  out.rank = groups;
  for (std::size_t i = 0; i < r; ++i) {
    if (out.dims[group[i]] == 0) {
      out.dims[group[i]] = rdims[i];
    } else {
      out.dims[group[i]] *= rdims[i];
    }
  }
  // The fused perm: groups in output order.  Fused members are contiguous
  // in the output too, so each group appears exactly once at the slot of
  // its first member.
  std::size_t gpos = 0;
  for (std::size_t k = 0; k < r; ++k) {
    const std::uint8_t g = group[rperm[k]];
    if (k == 0 || g != out.perm[gpos - 1]) {
      out.perm[gpos++] = g;
    }
  }
  return out;
}

std::uint32_t pack_nd_perm(const nd_normalized& norm) noexcept {
  std::uint32_t packed = 0;
  for (std::size_t k = 0; k < norm.rank; ++k) {
    packed |= static_cast<std::uint32_t>(norm.perm[k]) << (4 * k);
  }
  return packed;
}

namespace {

using axis_order = std::array<std::uint8_t, tensor_max_rank>;

std::uint32_t pack_order(const axis_order& s, std::size_t r) {
  std::uint32_t packed = 0;
  for (std::size_t k = 0; k < r; ++k) {
    packed |= static_cast<std::uint32_t>(s[k]) << (4 * k);
  }
  return packed;
}

/// Cost model for one adjacent-group-swap pass, memoized per shape.  The
/// memsim roofline heuristic scores a single streaming sweep; the two
/// execution paths depart from that in opposite directions, scaled by
/// the tensor_calibration() constants (startup-probed, static fallback):
///
///   * a chunk == 1 pass routes through the planned in-place engines,
///     whose c2r/r2c decomposition makes several rotate/shuffle sweeps
///     over the slab with strided access — ~7x a single sweep;
///   * a chunk > 1 pass is one gather sweep of whole chunks, near the
///     roofline when the chunk stride covers a cache line and degrading
///     as sub-line chunks waste line bandwidth.
class pass_cost_model {
 public:
  explicit pass_cost_model(std::size_t elem_size)
      : elem_(elem_size), cal_(tensor_calibration()) {}

  double cost(const nd_pass& p) {
    const std::uint64_t key =
        (p.rows * 0x9e3779b97f4a7c15ull) ^ (p.cols * 0xc2b2ae3d27d4eb4full) ^
        p.chunk;
    const auto it = memo_.find(key);
    double per_slab = 0.0;
    if (it != memo_.end()) {
      per_slab = it->second;
    } else {
      per_slab = memsim::predict_heuristic(p.rows, p.cols,
                                           elem_ * p.chunk)
                     .seconds;
      if (p.chunk > 1) {
        const double chunk_bytes =
            static_cast<double>(elem_) * static_cast<double>(p.chunk);
        per_slab *= 1.0 + cal_.line_bytes / chunk_bytes;
      } else {
        per_slab *= cal_.engine_sweeps;
      }
      memo_.emplace(key, per_slab);
    }
    return per_slab * static_cast<double>(p.batch);
  }

 private:
  std::size_t elem_;
  tensor_calibration_values cal_;
  std::unordered_map<std::uint64_t, double> memo_;
};

/// The adjacent-group-swap applied to an axis order: [a,b) and [b,c)
/// exchange, everything else stays.
axis_order apply_swap(const axis_order& s, std::size_t r, std::size_t a,
                      std::size_t b, std::size_t c) {
  axis_order out{};
  std::size_t w = 0;
  for (std::size_t i = 0; i < a; ++i) {
    out[w++] = s[i];
  }
  for (std::size_t i = b; i < c; ++i) {
    out[w++] = s[i];
  }
  for (std::size_t i = a; i < b; ++i) {
    out[w++] = s[i];
  }
  for (std::size_t i = c; i < r; ++i) {
    out[w++] = s[i];
  }
  return out;
}

nd_pass make_pass(const nd_normalized& norm, const axis_order& s,
                  std::size_t a, std::size_t b, std::size_t c) {
  nd_pass p;
  for (std::size_t i = 0; i < a; ++i) {
    p.batch *= norm.dims[s[i]];
  }
  for (std::size_t i = a; i < b; ++i) {
    p.rows *= norm.dims[s[i]];
  }
  for (std::size_t i = b; i < c; ++i) {
    p.cols *= norm.dims[s[i]];
  }
  for (std::size_t i = c; i < norm.rank; ++i) {
    p.chunk *= norm.dims[s[i]];
  }
  return p;
}

struct move_list {
  std::vector<std::array<std::size_t, 3>> splits;  // (a, b, c) triples
};

/// All (a, b, c) split points for rank r.  The full move set for r <= 6;
/// at r in {7, 8} the swapped groups are capped at two axes each, which
/// still reaches every ordering (adjacent transpositions generate the
/// group) while bounding the 40320-state search's edge count.
move_list moves_for_rank(std::size_t r) {
  move_list m;
  const std::size_t cap = r <= 6 ? r : 2;
  for (std::size_t a = 0; a < r; ++a) {
    for (std::size_t b = a + 1; b < r && b - a <= cap; ++b) {
      for (std::size_t c = b + 1; c <= r && c - b <= cap; ++c) {
        m.splits.push_back({a, b, c});
      }
    }
  }
  return m;
}

struct search_node {
  double cost = std::numeric_limits<double>::infinity();
  std::uint32_t prev = 0;
  nd_pass via{};
  bool has_prev = false;
  axis_order order{};
};

tensor_plan search_best(const nd_normalized& norm, std::size_t elem_size) {
  const std::size_t r = norm.rank;
  pass_cost_model model(elem_size);
  const move_list moves = moves_for_rank(r);

  axis_order start{};
  for (std::size_t k = 0; k < r; ++k) {
    start[k] = static_cast<std::uint8_t>(k);
  }
  axis_order goal{};
  for (std::size_t k = 0; k < r; ++k) {
    goal[k] = norm.perm[k];
  }
  const std::uint32_t goal_key = pack_order(goal, r);

  std::unordered_map<std::uint32_t, search_node> nodes;
  using pq_item = std::pair<double, std::uint32_t>;
  std::priority_queue<pq_item, std::vector<pq_item>, std::greater<>> pq;
  const std::uint32_t start_key = pack_order(start, r);
  nodes[start_key] = {0.0, 0, {}, false, start};
  pq.emplace(0.0, start_key);

  while (!pq.empty()) {
    const auto [cost, key] = pq.top();
    pq.pop();
    const search_node node = nodes[key];  // copy: the map may rehash below
    if (cost > node.cost) {
      continue;  // stale queue entry
    }
    if (key == goal_key) {
      break;
    }
    for (const auto& [a, b, c] : moves.splits) {
      const nd_pass p = make_pass(norm, node.order, a, b, c);
      const axis_order next = apply_swap(node.order, r, a, b, c);
      const std::uint32_t nkey = pack_order(next, r);
      const double ncost = cost + model.cost(p);
      auto [it, fresh] = nodes.try_emplace(nkey);
      if (fresh || ncost < it->second.cost) {
        it->second = {ncost, key, p, true, next};
        pq.emplace(ncost, nkey);
      }
    }
  }

  tensor_plan plan;
  plan.norm = norm;
  const auto goal_it = nodes.find(goal_key);
  // The move set generates the symmetric group, so the goal is always
  // reached; guard anyway so a logic slip fails loudly, not silently.
  if (goal_it == nodes.end()) {
    throw error("inplace: tensor plan search failed to reach the target "
                "axis order");
  }
  plan.model_seconds = goal_it->second.cost;
  std::uint32_t key = goal_key;
  while (nodes[key].has_prev) {
    plan.passes.push_back(nodes[key].via);
    key = nodes[key].prev;
  }
  std::reverse(plan.passes.begin(), plan.passes.end());
  return plan;
}

/// Depth-bounded exhaustive DFS maximizing cost — the ablation foil.
/// Only meaningful at the bench's small ranks; callers above rank 4 get
/// the best plan back (a worst-order search over 8! states would dwarf
/// the work it measures).
void search_worst_from(const nd_normalized& norm, pass_cost_model& model,
                       const move_list& moves, const axis_order& order,
                       std::uint32_t goal_key, double cost,
                       std::vector<nd_pass>& path,
                       std::vector<std::uint32_t>& visited,
                       std::size_t depth_left, tensor_plan& out) {
  const std::uint32_t key = pack_order(order, norm.rank);
  if (key == goal_key && !path.empty()) {
    if (cost > out.model_seconds) {
      out.model_seconds = cost;
      out.passes = path;
    }
    return;
  }
  if (depth_left == 0) {
    return;
  }
  for (const auto& [a, b, c] : moves.splits) {
    const axis_order next = apply_swap(order, norm.rank, a, b, c);
    const std::uint32_t nkey = pack_order(next, norm.rank);
    if (std::find(visited.begin(), visited.end(), nkey) != visited.end()) {
      continue;  // simple paths only
    }
    const nd_pass p = make_pass(norm, order, a, b, c);
    path.push_back(p);
    visited.push_back(nkey);
    search_worst_from(norm, model, moves, next, goal_key, cost + model.cost(p),
                      path, visited, depth_left - 1, out);
    visited.pop_back();
    path.pop_back();
  }
}

tensor_plan search_worst(const nd_normalized& norm, std::size_t elem_size,
                         std::size_t pass_budget) {
  pass_cost_model model(elem_size);
  const move_list moves = moves_for_rank(norm.rank);
  axis_order start{};
  for (std::size_t k = 0; k < norm.rank; ++k) {
    start[k] = static_cast<std::uint8_t>(k);
  }
  axis_order goal{};
  for (std::size_t k = 0; k < norm.rank; ++k) {
    goal[k] = norm.perm[k];
  }
  tensor_plan out;
  out.norm = norm;
  out.model_seconds = -1.0;
  std::vector<nd_pass> path;
  std::vector<std::uint32_t> visited{pack_order(start, norm.rank)};
  search_worst_from(norm, model, moves, start, pack_order(goal, norm.rank),
                    0.0, path, visited, pass_budget, out);
  return out;
}

}  // namespace

tensor_plan make_tensor_plan(const nd_normalized& norm, std::size_t elem_size,
                             tensor_goal goal) {
  // Models a planner-side fault (e.g. a failing bookkeeping allocation
  // inside the search).  Fires before any state exists, so an injected
  // fault propagates with the caller's buffer untouched.
  INPLACE_FAILPOINT("tensor.plan.search");
  const char* cal = tensor_calibration().provenance;
  tensor_plan plan;
  plan.norm = norm;
  plan.calibration = cal;
  if (norm.rank <= 1) {
    return plan;  // identity on memory: nothing to run
  }
  tensor_plan best = search_best(norm, elem_size);
  best.calibration = cal;
  if (goal == tensor_goal::best || norm.rank > 4) {
    return best;
  }
  tensor_plan worst =
      search_worst(norm, elem_size, std::min<std::size_t>(best.passes.size() + 1, 4));
  worst.calibration = cal;
  return worst.model_seconds >= 0.0 ? worst : best;
}

tensor_plan make_tensor_plan(std::span<const std::size_t> dims,
                             std::span<const int> perm, std::size_t elem_size,
                             tensor_goal goal) {
  validate_nd_perm(dims, perm);
  return make_tensor_plan(normalize_nd(dims, perm), elem_size, goal);
}

}  // namespace inplace::detail
