// Reproduces Figure 8: unit-stride Array-of-Structures store and copy
// bandwidth versus structure size, for the three access strategies —
// compiler-generated element-wise ("Direct"), native 128-bit vector
// accesses ("Vector"), and the in-register transpose ("C2R").
//
// Paper setup: Tesla K20c, structures of 0-64 bytes; C2R ~ full bandwidth
// (~180 GB/s flat), Vector in between, Direct lowest (up to 45x slower
// for stores).
//
// Two reproductions (DESIGN.md §2):
//   (a) the coalescing model predicts each curve for K20c parameters —
//       exact shape reproduction;
//   (b) measured CPU kernels: field-major (strided) vs transpose-staged
//       SoA->AoS copies show the same strided-vs-contiguous gap on real
//       hardware.

#include <cstdio>
#include <vector>

#include "memsim/bandwidth_model.hpp"
#include "simd/cpu_kernels.hpp"
#include "simd/vectorized.hpp"
#include "util/ascii_plot.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

util::series to_series(const char* name,
                       const std::vector<memsim::bandwidth_point>& pts,
                       double scale = 1.0) {
  util::series s;
  s.name = name;
  for (const auto& p : pts) {
    s.x.push_back(static_cast<double>(p.struct_bytes));
    s.y.push_back(p.gbs * scale);
  }
  return s;
}

void print_rows(const char* title,
                const std::vector<memsim::bandwidth_point>& c2r,
                const std::vector<memsim::bandwidth_point>& direct,
                const std::vector<memsim::bandwidth_point>& vec) {
  std::printf("%s\n  %10s %10s %10s %10s %10s\n", title, "bytes",
              "C2R GB/s", "Vector", "Direct", "C2R/Direct");
  for (std::size_t k = 0; k < c2r.size(); ++k) {
    std::printf("  %10llu %10.1f %10.1f %10.1f %9.1fx\n",
                static_cast<unsigned long long>(c2r[k].struct_bytes),
                c2r[k].gbs, vec[k].gbs, direct[k].gbs,
                c2r[k].gbs / direct[k].gbs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "fig8_unit_stride_aos",
      "K20c: C2R ~180 GB/s flat; Vector mid; Direct low (up to 45x gap); "
      "store and copy panels",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Figure 8 (unit-stride AoS store / copy bandwidth vs struct size)",
      "K20c: C2R ~180 GB/s flat; Vector mid; Direct low (up to 45x gap); "
      "store and copy panels");

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t b = 4; b <= 64; b += 4) {
    sizes.push_back(b);
  }
  memsim::pattern_params base;
  base.num_structs = static_cast<std::uint64_t>(4096 * cfg.scale);

  // --- (a) model-predicted K20c curves -----------------------------------
  using memsim::access_kind;
  using memsim::locality;
  const auto c2r = memsim::sweep_struct_sizes(access_kind::c2r,
                                              locality::unit_stride, sizes,
                                              base);
  const auto direct = memsim::sweep_struct_sizes(
      access_kind::direct, locality::unit_stride, sizes, base);
  const auto vec = memsim::sweep_struct_sizes(
      access_kind::vector, locality::unit_stride, sizes, base);

  // Store panel: one pass of traffic.  Copy panel: load + store — same
  // efficiency per pass, so the curves coincide up to the shared peak.
  std::printf("%s\n",
              util::line_chart({to_series("C2R", c2r),
                                to_series("Vector", vec),
                                to_series("Direct", direct)},
                               "[Fig 8a/8b, modelled] unit-stride AoS "
                               "store/copy bandwidth (K20c parameters)",
                               "struct bytes", "GB/s")
                  .c_str());
  print_rows("[Fig 8, modelled] predicted bandwidth:", c2r, direct, vec);

  // --- (b) measured CPU analogue -----------------------------------------
  std::printf("\n[Fig 8, measured on this CPU] SoA->AoS copy (store "
              "direction), float fields:\n");
  std::printf("  %10s %12s %12s %12s %9s\n", "bytes", "tile GB/s",
              "staged GB/s", "strided GB/s", "tile/str");
  const std::size_t count = static_cast<std::size_t>(1'000'000 * cfg.scale);
  util::series meas_tile{"regtile", {}, {}};
  util::series meas_staged{"staged", {}, {}};
  util::series meas_direct{"strided", {}, {}};
  for (std::size_t fields = 1; fields <= 16; fields += (fields < 4 ? 1 : 4)) {
    std::vector<float> soa(count * fields);
    std::vector<float> aos(count * fields);
    util::timer clk;
    simd::soa_to_aos_vectorized(aos.data(), soa.data(), count, fields);
    const double t_tile = clk.seconds();
    clk.reset();
    simd::soa_to_aos_staged(aos.data(), soa.data(), count, fields);
    const double t_staged = clk.seconds();
    clk.reset();
    simd::soa_to_aos_direct(aos.data(), soa.data(), count, fields);
    const double t_direct = clk.seconds();
    const double bytes = 2.0 * double(count * fields * sizeof(float));
    const double g_tile = bytes / t_tile * 1e-9;
    const double g_staged = bytes / t_staged * 1e-9;
    const double g_direct = bytes / t_direct * 1e-9;
    std::printf("  %10zu %12.2f %12.2f %12.2f %8.2fx\n",
                fields * sizeof(float), g_tile, g_staged, g_direct,
                g_tile / g_direct);
    meas_tile.x.push_back(double(fields * sizeof(float)));
    meas_tile.y.push_back(g_tile);
    meas_staged.x.push_back(double(fields * sizeof(float)));
    meas_staged.y.push_back(g_staged);
    meas_direct.x.push_back(double(fields * sizeof(float)));
    meas_direct.y.push_back(g_direct);
  }
  std::printf("\n%s",
              util::line_chart({meas_tile, meas_staged, meas_direct},
                               "[Fig 8, measured] register-tile / staged / "
                               "strided SoA->AoS copy on this CPU",
                               "struct bytes", "GB/s")
                  .c_str());

  if (cfg.csv_path) {
    util::csv_writer csv(*cfg.csv_path);
    csv.row("struct_bytes", "model_c2r_gbs", "model_vector_gbs",
            "model_direct_gbs");
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      csv.row(sizes[k], c2r[k].gbs, vec[k].gbs, direct[k].gbs);
    }
  }

  auto model_gbs = [](const std::vector<memsim::bandwidth_point>& pts) {
    std::vector<double> out;
    out.reserve(pts.size());
    for (const auto& p : pts) {
      out.push_back(p.gbs);
    }
    return out;
  };
  rep.add_series("model_c2r_gbs", "GB/s", model_gbs(c2r));
  rep.add_series("model_vector_gbs", "GB/s", model_gbs(vec));
  rep.add_series("model_direct_gbs", "GB/s", model_gbs(direct));
  rep.add_series("measured_regtile_gbs", "GB/s", meas_tile.y);
  rep.add_series("measured_staged_gbs", "GB/s", meas_staged.y);
  rep.add_series("measured_strided_gbs", "GB/s", meas_direct.y);
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
