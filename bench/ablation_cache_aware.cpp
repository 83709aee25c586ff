// Ablation for Sections 4.6-4.7: the cache-aware column operations.  The
// reference engine runs Algorithm 1 verbatim (column-at-a-time gathers,
// strided by the row length); the blocked engine replaces every column
// pass with two-phase sub-row rotations and cycle-following row
// permutations.  The paper's GPU implementation leans on the same
// restructuring ("ensuring all cache-lines read and written are utilized
// efficiently").

#include <cstdio>
#include <vector>

#include "core/transpose.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

double run(std::uint64_t m, std::uint64_t n, engine_kind engine, int reps) {
  std::vector<double> gbs;
  std::vector<double> buf(m * n);
  options opts;
  opts.engine = engine;
  opts.threads = 1;  // isolate the memory-access effect
  for (int r = 0; r < reps; ++r) {
    util::fill_iota(std::span<double>(buf));
    util::timer clk;
    c2r(buf.data(), m, n, opts);
    gbs.push_back(util::transpose_throughput_gbs(m, n, sizeof(double),
                                                 clk.seconds()));
  }
  return util::median(gbs);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_cache_aware",
      "blocked sub-row rotations + cycle-following row permute vs naive "
      "column-at-a-time passes",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: Sections 4.6-4.7 cache-aware column operations",
      "blocked sub-row rotations + cycle-following row permute vs naive "
      "column-at-a-time passes");

  const int reps = static_cast<int>(cfg.samples(3, 2));
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {512, 512}, {1024, 768}, {768, 1024}, {1536, 1536}, {2048, 1024}};
  std::printf("  %-14s %14s %14s %9s\n", "shape", "blocked GB/s",
              "naive GB/s", "speedup");
  for (const auto& [m, n] : shapes) {
    const double blocked = run(m, n, engine_kind::blocked, reps);
    const double naive = run(m, n, engine_kind::reference, reps);
    std::printf("  %6llux%-7llu %14.3f %14.3f %8.2fx\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n), blocked, naive,
                blocked / naive);
    rep.add_sample("blocked_gbs", "GB/s", blocked);
    rep.add_sample("naive_gbs", "GB/s", naive);
  }
  std::printf("\n(the gap widens with array size as naive column passes "
              "touch one cache line per element)\n");

  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
