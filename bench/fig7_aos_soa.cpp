// Reproduces Figure 7: in-place transpose throughput for Array of
// Structures -> Structure of Arrays conversion with the skinny-matrix
// specialization.
//
// Paper setup: 10000 random AoS workloads, structure size ~ U[2, 32)
// 64-bit elements, count ~ U[1e4, 1e7), Tesla K20c; median 34.3 GB/s,
// max 51 GB/s — versus 19.5 GB/s median for the general transpose.
//
// Shape claims checked here: the skinny specialization's median beats the
// general (blocked) engine run on the same skinny workloads, and the
// distribution is unimodal with a long right tail toward small structure
// sizes.

#include <cstdio>
#include <vector>

#include "core/transpose.hpp"
#include "cpu/soa.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace inplace;
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "fig7_aos_soa",
      "K20c: median 34.3 GB/s, max 51 GB/s; skinny specialization beats "
      "the general transpose (19.5)",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Figure 7 (AoS -> SoA in-place conversion throughput)",
      "K20c: median 34.3 GB/s, max 51 GB/s; skinny specialization beats "
      "the general transpose (19.5)");

  const std::size_t count = cfg.samples(120);
  util::xoshiro256 rng(7);
  std::vector<std::uint64_t> fields(count);
  std::vector<std::uint64_t> counts(count);
  for (std::size_t k = 0; k < count; ++k) {
    fields[k] = rng.uniform(2, 32);
    counts[k] = rng.uniform(10'000, 1'000'000);
  }
  std::printf("samples: %zu conversions, struct size ~ U[2,32) x 64-bit, "
              "count ~ U[1e4,1e6)\n\n",
              count);

  std::vector<double> skinny_gbs;
  std::vector<double> general_gbs;
  std::vector<double> buf;
  options general;
  general.engine = engine_kind::blocked;
  general.threads = cfg.threads;
  options skinny;
  skinny.threads = cfg.threads;  // planner picks the skinny engine
  for (std::size_t k = 0; k < count; ++k) {
    buf.resize(counts[k] * fields[k]);
    util::fill_iota(std::span<double>(buf));
    util::timer clk;
    aos_to_soa(buf.data(), counts[k], fields[k], skinny);
    skinny_gbs.push_back(util::transpose_throughput_gbs(
        counts[k], fields[k], sizeof(double), clk.seconds()));

    util::fill_iota(std::span<double>(buf));
    clk.reset();
    aos_to_soa(buf.data(), counts[k], fields[k], general);
    general_gbs.push_back(util::transpose_throughput_gbs(
        counts[k], fields[k], sizeof(double), clk.seconds()));
  }

  const double hi = util::quantile(skinny_gbs, 0.99) * 1.05;
  util::histogram h(0.0, hi <= 0 ? 1.0 : hi, 16);
  h.add(skinny_gbs);
  std::printf("[Fig 7] AoS->SoA conversion throughput (skinny engine)\n%s",
              h.render(44, util::median(skinny_gbs)).c_str());

  std::printf("\n  %-26s %10s %10s\n", "", "paper", "here");
  std::printf("  %-26s %10.1f %10.3f\n", "skinny median GB/s", 34.3,
              util::median(skinny_gbs));
  std::printf("  %-26s %10.1f %10.3f\n", "skinny max GB/s", 51.0,
              util::max_value(skinny_gbs));
  std::printf("  %-26s %10.1f %10.3f\n", "general engine median", 19.5,
              util::median(general_gbs));
  std::printf("\nshape check: skinny/general median = %.2fx (paper: "
              "1.76x)\n",
              util::median(skinny_gbs) / util::median(general_gbs));

  if (cfg.csv_path) {
    util::csv_writer csv(*cfg.csv_path);
    csv.row("count", "fields", "skinny_gbs", "general_gbs");
    for (std::size_t k = 0; k < count; ++k) {
      csv.row(counts[k], fields[k], skinny_gbs[k], general_gbs[k]);
    }
  }

  rep.add_series("skinny_gbs", "GB/s", skinny_gbs);
  rep.add_series("general_gbs", "GB/s", general_gbs);
  rep.note("workloads", static_cast<std::uint64_t>(count));
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
