// Reproduces Figure 3 and Table 1: throughput histograms and medians of
// in-place matrix transposition on the CPU, over randomly sized matrices
// of 64-bit elements.
//
// Paper setup: 1000 matrices, m,n ~ U[1000, 10000), Intel i7 950
// (4C/8T); rows: Intel MKL 0.067, C2R 1 thread 0.336, C2R 8 threads 1.26,
// Gustavson et al. 1.27 GB/s (medians).
//
// Substitutions (DESIGN.md §2): MKL's closed-source serial cycle follower
// -> our cycle-following baseline; Gustavson's code -> our square-block
// tiled baseline.  Extents are scaled down (default U[256, 2048)) to keep
// the default run under a minute; scale up with --scale or
// INPLACE_BENCH_SCALE.
//
// Shape claims checked: C2R(1T) substantially beats serial cycle
// following; the multithreaded row exists (speedup requires >1 core);
// the tiled baseline is competitive with C2R on conveniently sized
// arrays.

#include <cstdio>
#include <vector>

#include "baselines/cycle_follow.hpp"
#include "baselines/gustavson_like.hpp"
#include "core/transpose.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

struct sample_set {
  std::vector<std::uint64_t> ms;
  std::vector<std::uint64_t> ns;
};

sample_set draw_extents(std::size_t count, std::uint64_t lo,
                        std::uint64_t hi) {
  util::xoshiro256 rng(20140215);
  sample_set s;
  for (std::size_t k = 0; k < count; ++k) {
    s.ms.push_back(rng.uniform(lo, hi));
    s.ns.push_back(rng.uniform(lo, hi));
  }
  return s;
}

template <typename Fn>
std::vector<double> run_series(const sample_set& s, const char* name,
                               Fn transpose_fn) {
  std::vector<double> gbs;
  std::vector<double> buf;
  gbs.reserve(s.ms.size());
  for (std::size_t k = 0; k < s.ms.size(); ++k) {
    const std::uint64_t m = s.ms[k];
    const std::uint64_t n = s.ns[k];
    buf.resize(m * n);
    util::fill_iota(std::span<double>(buf));
    util::timer clk;
    transpose_fn(buf.data(), m, n);
    gbs.push_back(
        util::transpose_throughput_gbs(m, n, sizeof(double), clk.seconds()));
  }
  std::printf("  %-24s median %7.3f GB/s   (min %.3f, max %.3f)\n", name,
              util::median(gbs), util::min_value(gbs), util::max_value(gbs));
  return gbs;
}

void print_histogram(const char* name, const std::vector<double>& gbs) {
  double hi = util::quantile(gbs, 0.99);  // clamp outliers, as in the paper
  hi = hi <= 0 ? 1.0 : hi * 1.05;
  util::histogram h(0.0, hi, 16);
  h.add(gbs);
  std::printf("\n%s\n%s", name, h.render(44, util::median(gbs)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "fig3_table1_cpu_histograms",
      "median GB/s: MKL 0.067 | C2R 1T 0.336 | C2R 8T 1.26 | Gustavson "
      "1.27 (i7 950; here: scaled extents, this host)",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Figure 3 + Table 1 (CPU in-place transpose throughput histograms)",
      "median GB/s: MKL 0.067 | C2R 1T 0.336 | C2R 8T 1.26 | Gustavson "
      "1.27 (i7 950; here: scaled extents, this host)");

  const std::size_t count = cfg.samples(60);
  const auto extents = draw_extents(count, 256, 2048);
  std::printf("samples: %zu matrices, m,n ~ U[256,2048), 64-bit elements, "
              "%d hardware thread(s)\n\n",
              count, util::hardware_threads());

  options one_thread;
  one_thread.threads = 1;
  options all_threads;
  all_threads.threads = cfg.threads;

  const auto mkl_sub = run_series(
      extents, "cycle-following (MKL sub)",
      [](double* a, std::uint64_t m, std::uint64_t n) {
        baselines::cycle_following_transpose(a, m, n);
      });
  const auto c2r_1t = run_series(
      extents, "C2R, 1 thread",
      [&](double* a, std::uint64_t m, std::uint64_t n) {
        transpose(a, m, n, storage_order::row_major, one_thread);
      });
  const auto c2r_nt = run_series(
      extents, "C2R, all threads",
      [&](double* a, std::uint64_t m, std::uint64_t n) {
        transpose(a, m, n, storage_order::row_major, all_threads);
      });
  const auto gust = run_series(
      extents, "Gustavson-like tiled",
      [](double* a, std::uint64_t m, std::uint64_t n) {
        baselines::gustavson_like_transpose(a, m, n);
      });

  print_histogram("[Fig 3a] cycle-following (MKL substitute)", mkl_sub);
  print_histogram("[Fig 3b] C2R, 1 thread", c2r_1t);
  print_histogram("[Fig 3c] C2R, all threads", c2r_nt);
  print_histogram("[Fig 3d] Gustavson-like tiled", gust);

  std::printf("\n[Table 1] Median in-place transposition throughputs "
              "(GB/s, 64-bit elements)\n");
  std::printf("  %-34s %10s %10s\n", "implementation", "paper", "here");
  std::printf("  %-34s %10.3f %10.3f\n", "Intel MKL / cycle-following",
              0.067, util::median(mkl_sub));
  std::printf("  %-34s %10.3f %10.3f\n", "C2R, 1 thread", 0.336,
              util::median(c2r_1t));
  std::printf("  %-34s %10.3f %10.3f\n", "C2R, all threads (paper: 8T)",
              1.26, util::median(c2r_nt));
  std::printf("  %-34s %10.3f %10.3f\n", "Gustavson et al. / tiled", 1.27,
              util::median(gust));
  std::printf("\nshape check: C2R(1T)/cycle-following = %.1fx (paper: "
              "5.0x)\n",
              util::median(c2r_1t) / util::median(mkl_sub));

  // The paper's i7 950 has an 8 MB LLC, so its U[1000,10000) samples are
  // all far out of cache; this host's LLC is hundreds of MB, which mutes
  // the random-access penalty of cycle following at histogram scale.  One
  // out-of-LLC spotlight restores the regime the paper measured.
  {
    const std::uint64_t m = static_cast<std::uint64_t>(5376 * cfg.scale) +
                            1792;  // ~>LLC at scale 1
    const std::uint64_t n = 7000;
    std::printf("\nout-of-LLC spotlight (%llux%llu doubles, %.0f MB):\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n), double(m * n * 8) / 1e6);
    std::vector<double> big(m * n);
    auto one = [&](const char* name, auto fn) {
      util::fill_iota(std::span<double>(big));
      util::timer clk;
      fn(big.data(), m, n);
      const double g = util::transpose_throughput_gbs(m, n, sizeof(double),
                                                      clk.seconds());
      std::printf("  %-26s %7.3f GB/s\n", name, g);
      return g;
    };
    const double cyc = one("cycle-following", [](double* a, std::uint64_t mm,
                                                 std::uint64_t nn) {
      baselines::cycle_following_transpose(a, mm, nn);
    });
    const double dec = one("C2R (decomposition)",
                           [&](double* a, std::uint64_t mm, std::uint64_t nn) {
                             transpose(a, mm, nn, storage_order::row_major,
                                       all_threads);
                           });
    std::printf("  decomposition/cycle-following gap out of cache: %.1fx\n",
                dec / cyc);
    rep.add_sample("spotlight_cycle_following_gbs", "GB/s", cyc);
    rep.add_sample("spotlight_c2r_gbs", "GB/s", dec);
  }

  if (cfg.csv_path) {
    util::csv_writer csv(*cfg.csv_path);
    csv.row("m", "n", "mkl_sub_gbs", "c2r_1t_gbs", "c2r_nt_gbs",
            "gustavson_gbs");
    for (std::size_t k = 0; k < extents.ms.size(); ++k) {
      csv.row(extents.ms[k], extents.ns[k], mkl_sub[k], c2r_1t[k],
              c2r_nt[k], gust[k]);
    }
  }

  rep.add_series("cycle_following_gbs", "GB/s", mkl_sub);
  rep.add_series("c2r_1t_gbs", "GB/s", c2r_1t);
  rep.add_series("c2r_all_threads_gbs", "GB/s", c2r_nt);
  rep.add_series("gustavson_like_gbs", "GB/s", gust);
  rep.note("matrices", static_cast<std::uint64_t>(count));
  rep.note("hardware_threads", util::hardware_threads());
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
