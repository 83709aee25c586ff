// Ablation for Section 5.2's direction heuristic: "if m > n, use the C2R
// algorithm, otherwise use the R2C algorithm.  This improves the
// performance of our transposition routine and makes it more efficient
// than either the C2R algorithm or the R2C algorithm on their own."

#include <cstdio>
#include <vector>

#include "core/transpose.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

double run_once(std::uint64_t m, std::uint64_t n,
                options::algorithm alg, std::vector<float>& buf) {
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {  // best-of-2 to tame timer noise
    buf.resize(m * n);
    util::fill_iota(std::span<float>(buf));
    options opts;
    opts.alg = alg;
    util::timer clk;
    transpose(buf.data(), m, n, storage_order::row_major, opts);
    best = std::max(best,
                    util::transpose_throughput_gbs(m, n, sizeof(float),
                                                   clk.seconds()));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_heuristic",
      "the combined routine beats either direction alone over random "
      "shapes",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: Section 5.2 direction heuristic (m > n -> C2R else R2C)",
      "the combined routine beats either direction alone over random "
      "shapes");

  const std::size_t count = cfg.samples(40);
  util::xoshiro256 rng(52);
  std::vector<double> c2r_only;
  std::vector<double> r2c_only;
  std::vector<double> heuristic;
  std::vector<float> buf;
  std::size_t heuristic_wins = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t m = rng.uniform(128, 2048);
    const std::uint64_t n = rng.uniform(128, 2048);
    const double c = run_once(m, n, options::algorithm::c2r, buf);
    const double r = run_once(m, n, options::algorithm::r2c, buf);
    const double h = run_once(m, n, options::algorithm::automatic, buf);
    c2r_only.push_back(c);
    r2c_only.push_back(r);
    heuristic.push_back(h);
    if (h >= 0.90 * std::max(c, r)) {
      ++heuristic_wins;
    }
  }
  std::printf("  %-22s %10s\n", "strategy", "median GB/s");
  std::printf("  %-22s %10.3f\n", "C2R always", util::median(c2r_only));
  std::printf("  %-22s %10.3f\n", "R2C always", util::median(r2c_only));
  std::printf("  %-22s %10.3f\n", "heuristic (paper)",
              util::median(heuristic));
  std::printf("\nheuristic within 10%% of the better direction on %zu/%zu "
              "random shapes\n",
              heuristic_wins, count);
  std::printf("(paper: the heuristic \"improves the performance ... more "
              "efficient than either on their own\")\n");

  rep.add_series("c2r_always_gbs", "GB/s", c2r_only);
  rep.add_series("r2c_always_gbs", "GB/s", r2c_only);
  rep.add_series("heuristic_gbs", "GB/s", heuristic);
  rep.note("heuristic_wins", static_cast<std::uint64_t>(heuristic_wins));
  rep.note("shapes", static_cast<std::uint64_t>(count));
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
