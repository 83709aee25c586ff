// GPU-model reproduction of the paper's absolute numbers: the analytic
// device model (memsim/device_model.hpp) predicts end-to-end transpose
// throughput on Tesla-K20c parameters for every GPU experiment —
// Table 2, the Figure 4/5 landscape bands, and Figure 7's medians —
// complementing the measured-CPU benches with magnitude checks that the
// build host cannot provide.

#include <cstdio>
#include <vector>

#include "baselines/sung_tiled.hpp"
#include "memsim/device_model.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace inplace;
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "gpu_model_predictions",
      "K20c medians GB/s: Sung(f32) 5.33 | C2R(f32) 14.23 | C2R(f64) "
      "19.53 | skinny median 34.3 / max 51",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "GPU device-model predictions (Table 2, Figs. 4-7 magnitudes)",
      "K20c medians GB/s: Sung(f32) 5.33 | C2R(f32) 14.23 | C2R(f64) "
      "19.53 | skinny median 34.3 / max 51");

  // --- Table 2 / Figure 6 -------------------------------------------------
  const std::size_t samples = cfg.samples(400);
  util::xoshiro256 rng(1);
  std::vector<double> sung;
  std::vector<double> c2r_f32;
  std::vector<double> c2r_f64;
  for (std::size_t t = 0; t < samples; ++t) {
    const auto m = rng.uniform(1000, 20000);
    const auto n = rng.uniform(1000, 20000);
    const auto tiles = baselines::choose_tiles(m, n);
    sung.push_back(memsim::predict_tiled(
                       m, n, tiles.well_tiled ? tiles.tile_rows : 1,
                       tiles.well_tiled ? tiles.tile_cols : 1, 4)
                       .throughput_gbs);
    c2r_f32.push_back(memsim::predict_heuristic(m, n, 4).throughput_gbs);
    c2r_f64.push_back(memsim::predict_heuristic(m, n, 8).throughput_gbs);
  }
  std::printf("[Table 2, modelled] %zu arrays, m,n ~ U[1000,20000)\n",
              samples);
  std::printf("  %-24s %10s %10s\n", "implementation", "paper", "model");
  std::printf("  %-24s %10.2f %10.2f\n", "Sung [6] (float)", 5.33,
              util::median(sung));
  std::printf("  %-24s %10.2f %10.2f\n", "C2R (float)", 14.23,
              util::median(c2r_f32));
  std::printf("  %-24s %10.2f %10.2f\n", "C2R (double)", 19.53,
              util::median(c2r_f64));
  std::printf("  ratios: f64/f32 = %.2f (paper 1.37), C2R/Sung = %.2f "
              "(paper 2.67)\n\n",
              util::median(c2r_f64) / util::median(c2r_f32),
              util::median(c2r_f32) / util::median(sung));

  // --- Figures 4-5 bands ----------------------------------------------------
  // The paper's landscapes run 10-26 GB/s with a fast band where the
  // short dimension keeps rows on chip.
  std::vector<double> small_n;
  std::vector<double> bulk;
  for (std::size_t t = 0; t < samples; ++t) {
    const auto m = rng.uniform(1000, 25000);
    const auto n = rng.uniform(1000, 25000);
    const double g = memsim::predict_c2r(m, n, 4).throughput_gbs;
    (n < 3000 ? small_n : bulk).push_back(g);
  }
  std::printf("[Figs 4-5, modelled] C2R landscape: bulk median %.1f GB/s "
              "(paper: 10-26 GB/s range)\n",
              util::median(bulk));
  std::printf("  small-n band median %.1f GB/s -> band/bulk = %.2fx\n\n",
              util::median(small_n),
              util::median(small_n) / util::median(bulk));

  // --- Figure 7 ---------------------------------------------------------------
  std::vector<double> skinny;
  for (std::size_t t = 0; t < samples; ++t) {
    const auto fields = rng.uniform(2, 32);
    const auto count = rng.uniform(10'000, 10'000'000);
    skinny.push_back(
        memsim::predict_skinny(count, fields, 8).throughput_gbs);
  }
  std::printf("[Fig 7, modelled] AoS->SoA conversions (64-bit fields)\n");
  std::printf("  %-24s %10s %10s\n", "", "paper", "model");
  std::printf("  %-24s %10.1f %10.2f\n", "median GB/s", 34.3,
              util::median(skinny));
  std::printf("  %-24s %10.1f %10.2f\n", "max GB/s", 51.0,
              util::max_value(skinny));
  std::printf("  %-24s %10.1f %10.2f\n", "vs general median (19.5)", 1.76,
              util::median(skinny) / util::median(c2r_f64));

  if (cfg.csv_path) {
    util::csv_writer csv(*cfg.csv_path);
    csv.row("series", "median_gbs");
    csv.row("sung_f32", util::median(sung));
    csv.row("c2r_f32", util::median(c2r_f32));
    csv.row("c2r_f64", util::median(c2r_f64));
    csv.row("skinny_f64", util::median(skinny));
  }

  rep.add_series("model_sung_f32_gbs", "GB/s", sung);
  rep.add_series("model_c2r_f32_gbs", "GB/s", c2r_f32);
  rep.add_series("model_c2r_f64_gbs", "GB/s", c2r_f64);
  rep.add_series("model_skinny_f64_gbs", "GB/s", skinny);
  rep.add_series("model_landscape_small_n_gbs", "GB/s", small_n);
  rep.add_series("model_landscape_bulk_gbs", "GB/s", bulk);
  rep.note("sampled_arrays", static_cast<std::uint64_t>(samples));
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
