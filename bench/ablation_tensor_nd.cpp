// Ablation for the rank-N permutation planner (core/tensor_plan.hpp):
// what the cost-model search over decomposition orders buys against the
// worst admissible order on 3-D/4-D probe shapes.  Both plans execute
// through the same nd_transposer engine, so the measured gap isolates
// the decomposition choice — pass count, pass shapes, and whether a
// chunk-grid pass (strided, cache-hostile) appears where a batched 2-D
// pass would do.
//
// Besides the timing table, the binary self-gates deterministically:
//
//   * bit-exactness: both the searched and the worst-order plan must
//     reproduce the out-of-place reference on every probe;
//   * model ordering: the searched plan's memsim score must not exceed
//     the worst order's (a search regression, independent of timers);
//   * warm steady state: a timed permute_nd loop through a shared
//     transpose_context must show zero plan misses and zero arena
//     allocations after priming (the perm-extended context key works).
//
// The timing gate (searched >= worst is a regression) arms itself only
// at full scale — quick --scale runs are setup-dominated and self-skip.

#include <cstdio>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/tensor.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

struct probe {
  const char* name;
  std::vector<std::size_t> dims;
  std::vector<int> perm;
};

/// Out-of-place reference permutation (row-major both sides).
std::vector<float> reference_permute(const std::vector<float>& in,
                                     const std::vector<std::size_t>& dims,
                                     const std::vector<int>& perm) {
  const std::size_t rank = dims.size();
  std::vector<std::size_t> out_dims(rank);
  for (std::size_t k = 0; k < rank; ++k) {
    out_dims[k] = dims[static_cast<std::size_t>(perm[k])];
  }
  std::vector<std::size_t> out_strides(rank, 1);
  for (std::size_t k = rank; k-- > 1;) {
    out_strides[k - 1] = out_strides[k] * out_dims[k];
  }
  std::vector<float> out(in.size());
  std::vector<std::size_t> idx(rank, 0);
  for (std::size_t lin = 0; lin < in.size(); ++lin) {
    std::size_t olin = 0;
    for (std::size_t k = 0; k < rank; ++k) {
      olin += idx[static_cast<std::size_t>(perm[k])] * out_strides[k];
    }
    out[olin] = in[lin];
    for (std::size_t k = rank; k-- > 0;) {
      if (++idx[k] < dims[k]) {
        break;
      }
      idx[k] = 0;
    }
  }
  return out;
}

/// One timed execution of `tr` on a fresh iota buffer; optionally checks
/// the result bit-exactly against `want`.
double time_once(nd_transposer<float>& tr, std::vector<float>& buf,
                 const std::vector<float>* want, bool& exact_ok,
                 const char* what) {
  util::fill_iota(std::span<float>(buf));
  util::timer clk;
  tr(buf.data());
  const double us = clk.seconds() * 1e6;
  if (want != nullptr && buf != *want) {
    std::fprintf(stderr, "FAIL %s: output differs from the reference\n",
                 what);
    exact_ok = false;
  }
  return us;
}

/// Per-rep microseconds for the searched and worst-order plans, reps
/// interleaved pairwise (searched, worst, searched, worst, ...) after an
/// untimed warmup pair so each rep pair shares the same cache/TLB/clock
/// state — the per-pair gap survives run-to-run machine drift that
/// back-to-back blocks would fold into it.  Every rep is reported to the
/// harness so bench_gate sees the real spread, not a scalar.
void time_plans(const detail::tensor_plan& best,
                const detail::tensor_plan& worst, std::size_t total,
                const std::vector<float>& want, int reps, bool& exact_ok,
                const char* what, std::vector<double>& best_us,
                std::vector<double>& worst_us) {
  nd_transposer<float> tr_best(best);
  nd_transposer<float> tr_worst(worst);
  std::vector<float> buf(total);
  time_once(tr_best, buf, &want, exact_ok, what);   // warmup + exactness
  time_once(tr_worst, buf, &want, exact_ok, what);
  best_us.reserve(static_cast<std::size_t>(reps));
  worst_us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    best_us.push_back(time_once(tr_best, buf, nullptr, exact_ok, what));
    worst_us.push_back(time_once(tr_worst, buf, nullptr, exact_ok, what));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_tensor_nd",
      "rank-N decomposition-order search (memsim-scored) vs the worst "
      "admissible order, same execution engine",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: tensor decomposition-order search",
      "searched pass sequence vs worst-order foil on 3-D/4-D probes");

  const int reps = static_cast<int>(cfg.samples(7, 3));
  const probe probes[] = {
      {"rev3", {128, 96, 64}, {2, 1, 0}},
      {"rev4", {40, 32, 24, 20}, {3, 2, 1, 0}},
      {"nchw_nhwc", {8, 48, 56, 40}, {0, 2, 3, 1}},
  };
  // Quick --scale runs are setup-dominated: the timing gate arms only at
  // (near-)full scale, the deterministic gates always run.
  const bool timing_armed = cfg.scale >= 0.99;

  bool exact_ok = true;
  bool model_ok = true;
  bool timing_ok = true;
  std::printf("  %-11s %6s %6s %12s %12s %9s\n", "probe", "passes",
              "worstp", "searched us", "worst us", "gap");
  for (const auto& p : probes) {
    const auto best = detail::make_tensor_plan(
        std::span<const std::size_t>(p.dims), std::span<const int>(p.perm),
        sizeof(float), detail::tensor_goal::best);
    const auto worst = detail::make_tensor_plan(
        std::span<const std::size_t>(p.dims), std::span<const int>(p.perm),
        sizeof(float), detail::tensor_goal::worst);
    if (best.model_seconds > worst.model_seconds) {
      std::fprintf(stderr,
                   "FAIL %s: searched plan scores worse than the worst "
                   "order (%.3g > %.3g model seconds)\n",
                   p.name, best.model_seconds, worst.model_seconds);
      model_ok = false;
    }
    std::size_t total = 1;
    for (const std::size_t d : p.dims) {
      total *= d;
    }
    std::vector<float> src(total);
    util::fill_iota(std::span<float>(src));
    const auto want = reference_permute(src, p.dims, p.perm);
    std::vector<double> best_reps;
    std::vector<double> worst_reps;
    time_plans(best, worst, total, want, reps, exact_ok, p.name, best_reps,
               worst_reps);
    const double best_us = util::median(best_reps);
    const double worst_us = util::median(worst_reps);
    const double gap = worst_us / best_us;
    if (timing_armed && gap < 1.0) {
      // The searched order lost to the foil on the wall clock — allowed
      // for plans the model scores within noise of each other only when
      // the pass sequences are literally identical.
      if (best.passes.size() != worst.passes.size() ||
          best.model_seconds < worst.model_seconds) {
        std::fprintf(stderr,
                     "FAIL %s: searched order ran slower than the worst "
                     "order (%.1f us vs %.1f us)\n",
                     p.name, best_us, worst_us);
        timing_ok = false;
      }
    }
    std::printf("  %-11s %6zu %6zu %12.1f %12.1f %8.2fx\n", p.name,
                best.passes.size(), worst.passes.size(), best_us, worst_us,
                gap);
    const std::string tag(p.name);
    for (int r = 0; r < reps; ++r) {
      const auto i = static_cast<std::size_t>(r);
      rep.add_sample(tag + "_searched_us", "us", best_reps[i],
                     /*higher_is_better=*/false);
      rep.add_sample(tag + "_worst_us", "us", worst_reps[i],
                     /*higher_is_better=*/false);
      // Paired per-rep gaps give bench_gate the ratio's own spread.
      rep.add_sample(tag + "_gap", "x", worst_reps[i] / best_reps[i]);
    }
  }

  // Warm steady state through the context: after priming, a timed loop
  // must be pure reuse under the perm-extended cache key.
  bool steady_state_ok = true;
  {
    transpose_context ctx;
    const probe& p = probes[2];  // the NCHW->NHWC conversion
    std::size_t total = 1;
    for (const std::size_t d : p.dims) {
      total *= d;
    }
    std::vector<float> buf(total);
    util::fill_iota(std::span<float>(buf));
    ctx.permute_nd(buf.data(), std::span<const std::size_t>(p.dims),
                   std::span<const int>(p.perm));
    const context_stats primed = ctx.stats();
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      util::fill_iota(std::span<float>(buf));
      util::timer clk;
      ctx.permute_nd(buf.data(), std::span<const std::size_t>(p.dims),
                     std::span<const int>(p.perm));
      us.push_back(clk.seconds() * 1e6);
    }
    const context_stats after = ctx.stats();
    const auto reused = after.arenas_reused - primed.arenas_reused;
    if (after.plan_misses != primed.plan_misses ||
        after.arenas_created != primed.arenas_created ||
        reused != static_cast<std::uint64_t>(reps)) {
      std::fprintf(stderr,
                   "FAIL warm loop not steady-state (misses +%llu, arenas "
                   "+%llu, reused %llu/%d)\n",
                   static_cast<unsigned long long>(after.plan_misses -
                                                   primed.plan_misses),
                   static_cast<unsigned long long>(after.arenas_created -
                                                   primed.arenas_created),
                   static_cast<unsigned long long>(reused), reps);
      steady_state_ok = false;
    }
    std::printf("\n  warm permute_nd (%s): %.1f us/call, steady state %s\n",
                p.name, util::median(us), steady_state_ok ? "ok" : "FAIL");
    for (const double v : us) {
      rep.add_sample("warm_permute_nd_us", "us", v,
                     /*higher_is_better=*/false);
    }
  }

  std::printf("(gap = worst-order decomposition time / searched time; the "
              "search also prunes pass counts)\n");
  rep.note("bit_exact", exact_ok);
  rep.note("model_ordering_ok", model_ok);
  rep.note("warm_loop_steady_state", steady_state_ok);
  rep.note("timing_gate_armed", timing_armed);

  rep.attach_telemetry(coll);
  rep.write();
  if (!exact_ok || !model_ok || !steady_state_ok || !timing_ok) {
    std::fprintf(stderr,
                 "ablation_tensor_nd: deterministic gate failure (exact=%d "
                 "model=%d steady=%d timing=%d)\n",
                 exact_ok ? 1 : 0, model_ok ? 1 : 0, steady_state_ok ? 1 : 0,
                 timing_ok ? 1 : 0);
    return 1;
  }
  return 0;
}
