// Reproduces Figure 9: random-index Array-of-Structures scatter and
// gather bandwidth versus structure size.
//
// Paper setup: Tesla K20c; throughput improves as the structure size
// approaches the cache-line width, with the cooperative C2R access on
// top; indices are exchanged between lanes with shuffles.
//
// Reproductions: (a) coalescing-model predictions for K20c parameters;
// (b) measured CPU kernels (struct-major vs field-major random gather/
// scatter) showing the same ordering on real hardware.

#include <cstdio>
#include <vector>

#include "memsim/bandwidth_model.hpp"
#include "simd/cpu_kernels.hpp"
#include "util/ascii_plot.hpp"
#include "util/bench_harness.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

util::series to_series(const char* name,
                       const std::vector<memsim::bandwidth_point>& pts) {
  util::series s;
  s.name = name;
  for (const auto& p : pts) {
    s.x.push_back(static_cast<double>(p.struct_bytes));
    s.y.push_back(p.gbs);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "fig9_random_aos",
      "K20c: C2R highest; throughput rises toward the cache-line width "
      "for all strategies",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Figure 9 (random AoS scatter / gather bandwidth vs struct size)",
      "K20c: C2R highest; throughput rises toward the cache-line width "
      "for all strategies");

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t b = 4; b <= 64; b += 4) {
    sizes.push_back(b);
  }
  memsim::pattern_params base;
  base.num_structs = static_cast<std::uint64_t>(4096 * cfg.scale);

  using memsim::access_kind;
  using memsim::locality;
  const auto c2r = memsim::sweep_struct_sizes(access_kind::c2r,
                                              locality::random, sizes, base);
  const auto direct = memsim::sweep_struct_sizes(access_kind::direct,
                                                 locality::random, sizes,
                                                 base);
  const auto vec = memsim::sweep_struct_sizes(access_kind::vector,
                                              locality::random, sizes, base);

  std::printf("%s\n",
              util::line_chart({to_series("C2R", c2r),
                                to_series("Vector", vec),
                                to_series("Direct", direct)},
                               "[Fig 9a/9b, modelled] random AoS scatter/"
                               "gather bandwidth (K20c parameters)",
                               "struct bytes", "GB/s")
                  .c_str());
  std::printf("  %10s %10s %10s %10s\n", "bytes", "C2R GB/s", "Vector",
              "Direct");
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    std::printf("  %10llu %10.1f %10.1f %10.1f\n",
                static_cast<unsigned long long>(sizes[k]), c2r[k].gbs,
                vec[k].gbs, direct[k].gbs);
  }

  // --- measured CPU analogue ---------------------------------------------
  std::printf("\n[Fig 9, measured on this CPU] random gather/scatter of "
              "float structs:\n");
  std::printf("  %10s %14s %14s %14s %14s\n", "bytes", "gath-coal GB/s",
              "gath-direct", "scat-coal", "scat-direct");
  const std::size_t pool = static_cast<std::size_t>(1'000'000 * cfg.scale);
  const std::size_t requests = pool / 4;
  util::xoshiro256 rng(9);
  std::vector<std::uint64_t> idx(requests);
  for (auto& i : idx) {
    i = rng.uniform(0, pool);
  }
  for (std::size_t fields = 1; fields <= 16;
       fields += (fields < 4 ? 1 : 4)) {
    std::vector<float> aos(pool * fields, 1.0f);
    std::vector<float> out(requests * fields);
    const double bytes = 2.0 * double(requests * fields * sizeof(float));

    util::timer clk;
    simd::gather_structs_coalesced(out.data(), aos.data(), idx.data(),
                                   requests, fields);
    const double g_coal = bytes / clk.seconds() * 1e-9;
    clk.reset();
    simd::gather_structs_direct(out.data(), aos.data(), idx.data(),
                                requests, fields);
    const double g_dir = bytes / clk.seconds() * 1e-9;
    clk.reset();
    simd::scatter_structs_coalesced(aos.data(), out.data(), idx.data(),
                                    requests, fields);
    const double s_coal = bytes / clk.seconds() * 1e-9;
    clk.reset();
    simd::scatter_structs_direct(aos.data(), out.data(), idx.data(),
                                 requests, fields);
    const double s_dir = bytes / clk.seconds() * 1e-9;
    std::printf("  %10zu %14.2f %14.2f %14.2f %14.2f\n",
                fields * sizeof(float), g_coal, g_dir, s_coal, s_dir);
    rep.add_sample("measured_gather_coalesced_gbs", "GB/s", g_coal);
    rep.add_sample("measured_gather_direct_gbs", "GB/s", g_dir);
    rep.add_sample("measured_scatter_coalesced_gbs", "GB/s", s_coal);
    rep.add_sample("measured_scatter_direct_gbs", "GB/s", s_dir);
  }
  std::printf("(struct-major = cooperative/C2R analogue; field-major = "
              "compiler-generated analogue)\n");

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
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
