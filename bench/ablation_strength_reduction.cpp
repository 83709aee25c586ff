// Ablation for Section 4.4: arithmetic strength reduction.  The index
// equations are evaluated once per element per pass; replacing hardware
// integer division with the fixed-point-reciprocal multiply ("we found a
// significant performance improvement") is toggled via
// options::strength_reduction.

#include <cstdio>
#include <vector>

#include "core/transpose.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

double run(std::uint64_t m, std::uint64_t n, bool strength_reduction,
           int reps) {
  std::vector<double> gbs;
  std::vector<std::uint32_t> buf(m * n);
  options opts;
  opts.strength_reduction = strength_reduction;
  for (int r = 0; r < reps; ++r) {
    util::fill_iota(std::span<std::uint32_t>(buf));
    util::timer clk;
    transpose(buf.data(), m, n, storage_order::row_major, opts);
    gbs.push_back(util::transpose_throughput_gbs(m, n, sizeof(std::uint32_t),
                                                 clk.seconds()));
  }
  return util::median(gbs);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_strength_reduction",
      "\"a significant performance improvement\" from reciprocal division "
      "in the index equations",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: Section 4.4 arithmetic strength reduction",
      "\"a significant performance improvement\" from reciprocal division "
      "in the index equations");

  const int reps = static_cast<int>(cfg.samples(5, 3));
  struct shape {
    std::uint64_t m, n;
    const char* note;
  };
  const shape shapes[] = {
      {1536, 1024, "divisible extents"},
      {1021, 1531, "prime extents (c = 1)"},
      {2048, 768, "tall"},
      {600000, 7, "skinny (AoS->SoA regime)"},
      {997, 991, "prime, near-square"},
  };
  std::printf("  %-15s %-26s %12s %12s %9s\n", "shape", "", "fastdiv GB/s",
              "plain GB/s", "speedup");
  for (const auto& s : shapes) {
    const double fast = run(s.m, s.n, true, reps);
    const double plain = run(s.m, s.n, false, reps);
    char shape_str[32];
    std::snprintf(shape_str, sizeof shape_str, "%llux%llu",
                  static_cast<unsigned long long>(s.m),
                  static_cast<unsigned long long>(s.n));
    std::printf("  %-15s %-26s %12.3f %12.3f %8.2fx\n", shape_str, s.note,
                fast, plain, fast / plain);
    rep.add_sample("fastdiv_gbs", "GB/s", fast);
    rep.add_sample("plain_div_gbs", "GB/s", plain);
    rep.add_sample("speedup", "ratio", fast / plain);
  }
  std::printf("\n(speedup > 1 confirms the Section 4.4 claim on this "
              "host; the gain concentrates where index math dominates "
              "memory traffic)\n");

  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
