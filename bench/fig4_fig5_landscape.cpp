// Reproduces Figures 4 and 5: the C2R and R2C performance landscapes over
// the (m, n) extent plane, rendered as ASCII heatmaps.
//
// Paper setup: 250000 row-major float arrays, m,n in [1000, 25000], Tesla
// K20c; 10-26 GB/s.  Shape claims: C2R has a high-performing band at
// small n (a row fits on chip); R2C has the mirror band at small m (a
// column fits on chip); performance is otherwise fairly flat.
//
// Here: a grid sweep at laptop scale.  "On chip" is the L1/L2 cache, so
// the bands appear where the short dimension keeps the per-row/column
// working set cache resident.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/transpose.hpp"
#include "util/ascii_plot.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

double measure(direction dir, std::uint64_t m, std::uint64_t n,
               std::vector<float>& buf, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    buf.resize(m * n);
    util::fill_iota(std::span<float>(buf));
    options opts;
    util::timer clk;
    // Figures 4-5 study each permutation in isolation: run the raw
    // C2R/R2C permutation on the m x n view (no heuristic, no swap).
    const transpose_plan plan =
        make_directed_plan(buf.data(), m, n, dir, opts, sizeof(float));
    transposer<float> tr(plan);
    tr(buf.data());
    best = std::max(best, util::transpose_throughput_gbs(
                              m, n, sizeof(float), clk.seconds()));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "fig4_fig5_landscape",
      "K20c: 10-26 GB/s; C2R fast band at small n, R2C fast band at small "
      "m, C2R/R2C symmetric",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Figures 4-5 (C2R / R2C performance landscapes)",
      "K20c: 10-26 GB/s; C2R fast band at small n, R2C fast band at small "
      "m, C2R/R2C symmetric");

  const std::size_t grid = cfg.samples(12, 6);
  const int reps = 3;
  const std::uint64_t lo = 128;
  const std::uint64_t hi = 3072;
  std::vector<std::uint64_t> sizes(grid);
  for (std::size_t k = 0; k < grid; ++k) {
    sizes[k] = lo + (hi - lo) * k / (grid - 1);
  }
  std::printf("grid: %zux%zu, m,n in [%llu, %llu], 32-bit elements\n\n",
              grid, grid, static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));

  std::vector<double> c2r_grid(grid * grid);
  std::vector<double> r2c_grid(grid * grid);
  std::vector<float> buf;
  for (std::size_t r = 0; r < grid; ++r) {    // rows of the heatmap: m
    for (std::size_t c = 0; c < grid; ++c) {  // cols of the heatmap: n
      c2r_grid[r * grid + c] =
          measure(direction::c2r, sizes[r], sizes[c], buf, reps);
      r2c_grid[r * grid + c] =
          measure(direction::r2c, sizes[r], sizes[c], buf, reps);
    }
  }

  std::printf("%s\n",
              util::heatmap(c2r_grid, grid, grid,
                            "[Fig 4] C2R GB/s (rows: m small->large top->"
                            "bottom; cols: n)")
                  .c_str());
  std::printf("%s\n",
              util::heatmap(r2c_grid, grid, grid,
                            "[Fig 5] R2C GB/s (same axes)")
                  .c_str());

  // Quantify the bands: compare the narrow-side average against the bulk.
  auto band_ratio = [&](const std::vector<double>& g, bool narrow_cols) {
    std::vector<double> band;
    std::vector<double> bulk;
    for (std::size_t r = 0; r < grid; ++r) {
      for (std::size_t c = 0; c < grid; ++c) {
        const bool in_band = narrow_cols ? c == 0 : r == 0;
        (in_band ? band : bulk).push_back(g[r * grid + c]);
      }
    }
    return util::median(band) / util::median(bulk);
  };
  const double c2r_band = band_ratio(c2r_grid, true);
  const double r2c_band = band_ratio(r2c_grid, false);
  std::printf("shape check: C2R narrow-n band vs bulk: %.2fx (paper: high "
              "band on the left)\n",
              c2r_band);
  std::printf("shape check: R2C narrow-m band vs bulk: %.2fx (paper: high "
              "band on top)\n",
              r2c_band);

  // Section 5.2's heuristic: max(C2R, R2C) by shape.
  std::vector<double> heuristic(grid * grid);
  std::size_t heuristic_optimal = 0;
  for (std::size_t r = 0; r < grid; ++r) {
    for (std::size_t c = 0; c < grid; ++c) {
      const bool pick_c2r = sizes[r] > sizes[c];
      const double h =
          pick_c2r ? c2r_grid[r * grid + c] : r2c_grid[r * grid + c];
      heuristic[r * grid + c] = h;
      if (h >= 0.90 * std::max(c2r_grid[r * grid + c],
                               r2c_grid[r * grid + c])) {
        ++heuristic_optimal;
      }
    }
  }
  std::printf("heuristic (m>n -> C2R) within 10%% of the better direction "
              "on %zu/%zu cells\n",
              heuristic_optimal, grid * grid);

  if (cfg.csv_path) {
    util::csv_writer csv(*cfg.csv_path);
    csv.row("m", "n", "c2r_gbs", "r2c_gbs");
    for (std::size_t r = 0; r < grid; ++r) {
      for (std::size_t c = 0; c < grid; ++c) {
        csv.row(sizes[r], sizes[c], c2r_grid[r * grid + c],
                r2c_grid[r * grid + c]);
      }
    }
  }

  rep.add_series("c2r_landscape_gbs", "GB/s", c2r_grid);
  rep.add_series("r2c_landscape_gbs", "GB/s", r2c_grid);
  rep.add_series("heuristic_gbs", "GB/s", heuristic);
  rep.add_sample("c2r_band_over_bulk", "ratio", c2r_band);
  rep.add_sample("r2c_band_over_bulk", "ratio", r2c_band);
  rep.note("grid", static_cast<std::uint64_t>(grid));
  rep.attach_telemetry(coll, INPLACE_TELEMETRY_ENABLED != 0);
  rep.write();
  return 0;
}
