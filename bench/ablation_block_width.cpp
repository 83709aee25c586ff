// Ablation for the Section 4.6 design choice that sub-rows should match
// the cache-line size: sweeps the cache-aware engines' sub-row width and
// reports throughput.  Too narrow wastes line bandwidth on the random-row
// moves; too wide overflows the head buffers' cache residency.

#include <cstdio>
#include <vector>

#include "core/transpose.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

double run(std::uint64_t m, std::uint64_t n, std::size_t block_bytes,
           int reps) {
  std::vector<double> gbs;
  std::vector<double> buf(m * n);
  options opts;
  opts.block_bytes = block_bytes;
  opts.engine = engine_kind::blocked;
  for (int r = 0; r < reps; ++r) {
    util::fill_iota(std::span<double>(buf));
    util::timer clk;
    transpose(buf.data(), m, n, storage_order::row_major, opts);
    gbs.push_back(util::transpose_throughput_gbs(m, n, sizeof(double),
                                                 clk.seconds()));
  }
  return util::max_value(gbs);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_block_width",
      "sub-rows sized to cache lines maximize the cache-aware rotations' "
      "line utilization",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: Section 4.6 sub-row width (cache-line matching)",
      "sub-rows sized to cache lines maximize the cache-aware rotations' "
      "line utilization");

  const int reps = static_cast<int>(cfg.samples(3, 2));
  const std::size_t widths[] = {16, 32, 64, 128, 256, 512, 1024};
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {1024, 768}, {1536, 1536}, {2048, 1024}};
  std::printf("  %-12s", "width bytes");
  for (const auto& [m, n] : shapes) {
    std::printf(" %6llux%-6llu", static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n));
  }
  std::printf("   (GB/s, 64-bit elements, best of %d)\n", reps);
  for (const std::size_t w : widths) {
    std::printf("  %-12zu", w);
    const std::string series = "width_" + std::to_string(w) + "_gbs";
    for (const auto& [m, n] : shapes) {
      const double gbs = run(m, n, w, reps);
      std::printf(" %13.3f", gbs);
      rep.add_sample(series, "GB/s", gbs);
    }
    std::printf("%s\n", w == 128 ? "   <- default (one cache line)" : "");
  }

  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
