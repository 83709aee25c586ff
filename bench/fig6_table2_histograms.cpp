// Reproduces Figure 6 and Table 2: throughput histograms of in-place
// transposition comparing Sung's tiled algorithm (32-bit elements) with
// the decomposition (32- and 64-bit elements).
//
// Paper setup: m,n ~ U[1000, 20000) on a Tesla K20c; medians Sung(float)
// 5.33, C2R(float) 14.23, C2R(double) 19.53 GB/s; 2155 of 2500 arrays
// completed correctly under Sung's code (tile-divisibility trouble).
//
// Substitution: Sung's GPU code -> our tiled baseline with the paper's
// own factor-product tile heuristic (t = 72).  Shape claims checked:
// C2R(float) clearly beats the tiled baseline's median; the tiled
// baseline has a heavy low-throughput tail on inconveniently sized
// arrays; C2R(double) >= C2R(float).

#include <cstdio>
#include <vector>

#include "baselines/sung_tiled.hpp"
#include "core/transpose.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

template <typename T, typename Fn>
std::vector<double> run_series(const std::vector<std::uint64_t>& ms,
                               const std::vector<std::uint64_t>& ns,
                               const char* name, Fn transpose_fn) {
  std::vector<double> gbs;
  std::vector<T> buf;
  for (std::size_t k = 0; k < ms.size(); ++k) {
    buf.resize(ms[k] * ns[k]);
    util::fill_iota(std::span<T>(buf));
    util::timer clk;
    transpose_fn(buf.data(), ms[k], ns[k]);
    gbs.push_back(util::transpose_throughput_gbs(ms[k], ns[k], sizeof(T),
                                                 clk.seconds()));
  }
  std::printf("  %-22s median %7.3f GB/s   (min %.3f, max %.3f)\n", name,
              util::median(gbs), util::min_value(gbs), util::max_value(gbs));
  return gbs;
}

void print_histogram(const char* name, const std::vector<double>& gbs) {
  double hi = util::quantile(gbs, 0.99) * 1.05;
  if (hi <= 0) {
    hi = 1.0;
  }
  util::histogram h(0.0, hi, 16);
  h.add(gbs);
  std::printf("\n%s\n%s", name, h.render(44, util::median(gbs)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "fig6_table2_histograms",
      "K20c medians GB/s: Sung(float) 5.33 | C2R(float) 14.23 | "
      "C2R(double) 19.53",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Figure 6 + Table 2 (tiled baseline vs decomposition histograms)",
      "K20c medians GB/s: Sung(float) 5.33 | C2R(float) 14.23 | "
      "C2R(double) 19.53");

  const std::size_t count = cfg.samples(60);
  util::xoshiro256 rng(26);
  std::vector<std::uint64_t> ms(count);
  std::vector<std::uint64_t> ns(count);
  std::size_t well_tiled = 0;
  for (std::size_t k = 0; k < count; ++k) {
    ms[k] = rng.uniform(256, 2048);
    ns[k] = rng.uniform(256, 2048);
    well_tiled += baselines::choose_tiles(ms[k], ns[k]).well_tiled ? 1 : 0;
  }
  std::printf("samples: %zu matrices, m,n ~ U[256,2048); tile heuristic "
              "found good tiles on %zu/%zu (paper: 2155/2500 completed)\n\n",
              count, well_tiled, count);

  options opts;
  opts.threads = cfg.threads;
  const auto sung = run_series<float>(
      ms, ns, "Sung-like (float)",
      [](float* a, std::uint64_t m, std::uint64_t n) {
        baselines::sung_tiled_transpose(a, m, n);
      });
  const auto c2r_f = run_series<float>(
      ms, ns, "C2R (float)",
      [&](float* a, std::uint64_t m, std::uint64_t n) {
        transpose(a, m, n, storage_order::row_major, opts);
      });
  const auto c2r_d = run_series<double>(
      ms, ns, "C2R (double)",
      [&](double* a, std::uint64_t m, std::uint64_t n) {
        transpose(a, m, n, storage_order::row_major, opts);
      });

  print_histogram("[Fig 6a] Sung-like tiled (float)", sung);
  print_histogram("[Fig 6b] C2R (float)", c2r_f);
  print_histogram("[Fig 6c] C2R (double)", c2r_d);

  std::printf("\n[Table 2] Median in-place transposition throughputs "
              "(GB/s)\n");
  std::printf("  %-26s %10s %10s\n", "implementation", "paper", "here");
  std::printf("  %-26s %10.2f %10.3f\n", "Sung [6] / tiled (float)", 5.33,
              util::median(sung));
  std::printf("  %-26s %10.2f %10.3f\n", "C2R (float)", 14.23,
              util::median(c2r_f));
  std::printf("  %-26s %10.2f %10.3f\n", "C2R (double)", 19.53,
              util::median(c2r_d));
  std::printf("\nshape checks: C2R(float)/Sung = %.2fx (paper 2.7x); "
              "C2R(double)/C2R(float) = %.2fx (paper 1.37x)\n",
              util::median(c2r_f) / util::median(sung),
              util::median(c2r_d) / util::median(c2r_f));

  // The paper's core point about tiled algorithms: "Tiled algorithms
  // perform poorly on arrays with inconvenient dimensions."  Split the
  // tiled baseline's samples by whether the factor heuristic found good
  // tiles; C2R has no such sensitivity.
  std::vector<double> sung_good;
  std::vector<double> sung_bad;
  std::vector<double> c2r_good;
  std::vector<double> c2r_bad;
  for (std::size_t k = 0; k < count; ++k) {
    const bool good = baselines::choose_tiles(ms[k], ns[k]).well_tiled;
    (good ? sung_good : sung_bad).push_back(sung[k]);
    (good ? c2r_good : c2r_bad).push_back(c2r_f[k]);
  }
  if (!sung_good.empty() && !sung_bad.empty()) {
    std::printf("dimension sensitivity (median GB/s, float):\n");
    std::printf("  %-18s %14s %14s %14s\n", "", "good tiles",
                "degenerate", "penalty");
    std::printf("  %-18s %14.3f %14.3f %13.2fx\n", "Sung-like tiled",
                util::median(sung_good), util::median(sung_bad),
                util::median(sung_good) / util::median(sung_bad));
    std::printf("  %-18s %14.3f %14.3f %13.2fx\n", "C2R",
                util::median(c2r_good), util::median(c2r_bad),
                util::median(c2r_good) / util::median(c2r_bad));
    std::printf("(paper: only 2155/2500 arrays completed under Sung's "
                "code; C2R is shape-insensitive)\n");
  }

  if (cfg.csv_path) {
    util::csv_writer csv(*cfg.csv_path);
    csv.row("m", "n", "sung_float_gbs", "c2r_float_gbs", "c2r_double_gbs");
    for (std::size_t k = 0; k < count; ++k) {
      csv.row(ms[k], ns[k], sung[k], c2r_f[k], c2r_d[k]);
    }
  }

  rep.add_series("sung_float_gbs", "GB/s", sung);
  rep.add_series("c2r_float_gbs", "GB/s", c2r_f);
  rep.add_series("c2r_double_gbs", "GB/s", c2r_d);
  rep.note("matrices", static_cast<std::uint64_t>(count));
  rep.note("well_tiled", static_cast<std::uint64_t>(well_tiled));
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
