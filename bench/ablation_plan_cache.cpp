// Ablation for the execution context (core/context.hpp): what plan and
// arena reuse buys over the one-shot path.  A cold call pays planning,
// reciprocal setup, workspace allocation (threads x O(max(m, n))
// elements, Theorem 6) and permutation cycle discovery on top of the
// actual data movement; a warm call through a transpose_context skips all
// of it and replays the memoized cycle leaders.
//
// Besides the timing table, the binary self-gates deterministically: the
// context's own counters must show the timed warm loop ran with zero
// plan misses and zero arena allocations (the steady state the tentpole
// promises), independent of timer noise.  A violation exits nonzero.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

struct shape_result {
  double cold_us = 0.0;
  double warm_us = 0.0;
};

/// Median microseconds for one transpose, cold (fresh context per rep —
/// every call plans, allocates and discovers cycles) vs warm (one shared
/// context, primed before timing).
shape_result run_shape(std::uint64_t m, std::uint64_t n, int reps,
                       bool& steady_state_ok) {
  shape_result res;
  std::vector<double> buf(m * n);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));

  for (int r = 0; r < reps; ++r) {
    transpose_context cold_ctx;
    util::fill_iota(std::span<double>(buf));
    util::timer clk;
    cold_ctx.transpose(buf.data(), m, n);
    us.push_back(clk.seconds() * 1e6);
  }
  res.cold_us = util::median(us);

  transpose_context warm_ctx;
  util::fill_iota(std::span<double>(buf));
  warm_ctx.transpose(buf.data(), m, n);  // prime: plan + arena + cycles
  const context_stats primed = warm_ctx.stats();
  us.clear();
  for (int r = 0; r < reps; ++r) {
    util::fill_iota(std::span<double>(buf));
    util::timer clk;
    warm_ctx.transpose(buf.data(), m, n);
    us.push_back(clk.seconds() * 1e6);
  }
  res.warm_us = util::median(us);

  // The deterministic gate: the timed loop must have been pure reuse.
  const context_stats after = warm_ctx.stats();
  const auto reused = after.arenas_reused - primed.arenas_reused;
  if (after.plan_misses != primed.plan_misses ||
      after.arenas_created != primed.arenas_created ||
      reused != static_cast<std::uint64_t>(reps)) {
    std::fprintf(stderr,
                 "FAIL %llux%llu: warm loop was not steady-state "
                 "(misses +%llu, arenas +%llu, reused %llu/%d)\n",
                 static_cast<unsigned long long>(m),
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(after.plan_misses -
                                                 primed.plan_misses),
                 static_cast<unsigned long long>(after.arenas_created -
                                                 primed.arenas_created),
                 static_cast<unsigned long long>(reused), reps);
    steady_state_ok = false;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_plan_cache",
      "transpose_context plan/arena reuse: warm calls skip planning, "
      "workspace allocation and cycle discovery entirely",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: execution-context plan cache",
      "warm (cached plan + arena + memoized cycles) vs cold per-call setup");

  const int reps = static_cast<int>(cfg.samples(9, 5));
  // Blocked shapes with coprime and non-coprime dims, plus a skinny shape
  // where cycle discovery dominates the setup cost.
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {640, 384}, {1021, 511}, {1536, 1024}, {20000, 8}};

  bool steady_state_ok = true;
  std::printf("  %-14s %12s %12s %9s\n", "shape", "cold us", "warm us",
              "speedup");
  for (const auto& [m, n] : shapes) {
    const shape_result r = run_shape(m, n, reps, steady_state_ok);
    std::printf("  %6llux%-7llu %12.1f %12.1f %8.2fx\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n), r.cold_us, r.warm_us,
                r.cold_us / r.warm_us);
    rep.add_sample("cold_us", "us", r.cold_us, /*higher_is_better=*/false);
    rep.add_sample("warm_us", "us", r.warm_us, /*higher_is_better=*/false);
    rep.add_sample("speedup", "x", r.cold_us / r.warm_us);
  }
  std::printf("\n(gap = planning + scratch allocation + cycle discovery; "
              "largest where setup rivals the O(mn) data movement)\n");
  rep.note("warm_loop_steady_state", steady_state_ok);

  rep.attach_telemetry(coll);
  rep.write();
  if (!steady_state_ok) {
    std::fprintf(stderr,
                 "ablation_plan_cache: warm path performed steady-state "
                 "allocations — plan cache regression\n");
    return 1;
  }
  return 0;
}
