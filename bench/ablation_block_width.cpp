// Ablation for the Section 4.6 sub-row width of the blocked engine's
// column passes.  Section 4.6 sizes sub-rows to a GPU cache line; on CPUs
// the planner derives 256 bytes, or page-scale sub-rows once a 256-byte
// column group spills L2 (options::block_bytes, derived_block_bytes).
//
// Every number is a ratio measured in one run, so it means the same on
// any host:
//   1. width_<w>_vs_256_<shape>: one blocked transpose at sub-row width w
//      over the same transpose at 256 bytes (time at 256 / time at w;
//      above 1 = w is faster).  Widths interleave within each round and
//      each takes its median.  Two in-cache shapes and one whose
//      256-byte group (m * 256 bytes) spills the probed L2.
//   2. fine_blend_over_gather_<elem>_<w>: the fine pass of the fused C2R
//      column shuffle (residual jj) on the spilling shape's column
//      groups, on the team, through the tier's blend network
//      (fine_rotate_group) over the per-lane indexed gather it replaced
//      (head save + gather_index per row), the two alternating within
//      each round; below 1 = the network is faster.  Skipped on tiers
//      without a network.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "cpu/engine_blocked.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

const std::size_t kWidths[] = {64, 128, 256, 512, 1024, 2048, 4096};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median milliseconds of one blocked transpose per width in kWidths,
/// widths interleaved within each of `reps` rounds.
std::vector<double> width_ms(std::uint64_t m, std::uint64_t n, int reps) {
  std::vector<double> buf(m * n);
  std::vector<std::unique_ptr<transposer<double>>> trs;
  for (const std::size_t w : kWidths) {
    options opts;
    opts.block_bytes = w;
    opts.engine = engine_kind::blocked;
    trs.push_back(std::make_unique<transposer<double>>(
        m, n, storage_order::row_major, opts));
  }
  std::vector<std::vector<double>> ms(trs.size());
  util::fill_iota(std::span<double>(buf));
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < trs.size(); ++k) {
      util::timer clk;
      (*trs[k])(buf.data());
      ms[k].push_back(clk.seconds() * 1e3);
      trs[k]->undo(buf.data());
    }
  }
  std::vector<double> out;
  for (auto& v : ms) {
    out.push_back(median(v));
  }
  return out;
}

/// The C2R fine pass (residual jj) over every whole width-wide column
/// group of an m x n matrix on the team, one group per thread at a time
/// as in the engine: median time through the blend network over median
/// time through the per-row indexed gather, the two alternating within
/// each of `reps` rounds.
template <typename T>
double fine_blend_over_gather(std::uint64_t m, std::uint64_t n,
                              std::uint64_t width, int reps,
                              const kernels::kernel_set& ks) {
  const auto groups = static_cast<std::int64_t>(n / width);
  const std::uint64_t max_res = width - 1;
  std::vector<T> buf(m * n);
  util::fill_iota(std::span<T>(buf));
  std::vector<std::uint64_t> res(width);
  std::vector<std::uint64_t> idx(width);
  for (std::uint64_t jj = 0; jj < width; ++jj) {
    res[jj] = jj;
    idx[jj] = jj * n + jj;
  }
  detail::workspace_pool<T> pool(m, n, width);
  std::vector<double> blend_ms;
  std::vector<double> gather_ms;
  for (int r = 0; r < reps; ++r) {
    util::timer bclk;
    util::parallel_for(groups, 1, [&](std::int64_t g) {
      const auto j0 = static_cast<std::uint64_t>(g) * width;
      detail::fine_rotate_group(buf.data(), m, n, j0, width, res.data(),
                                pool.local().head.data(), &ks);
    });
    blend_ms.push_back(bclk.seconds() * 1e3);
    util::timer gclk;
    util::parallel_for(groups, 1, [&](std::int64_t g) {
      T* base = buf.data() + static_cast<std::uint64_t>(g) * width;
      T* head = pool.local().head.data();
      for (std::uint64_t i = 0; i < max_res; ++i) {
        std::copy(base + i * n, base + i * n + width, head + i * width);
      }
      detail::fine_rotate_rows(base, 0, m, n, width, res.data(), max_res,
                               head, &ks, idx.data(), false);
    });
    gather_ms.push_back(gclk.seconds() * 1e3);
  }
  return median(blend_ms) / median(gather_ms);
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

  const std::size_t l2 = kernels::probed_caches().l2_bytes;
  const int reps = static_cast<int>(cfg.samples(5, 3));
  // The spilling shape: a 256-byte column group of 1.5 x L2.
  const std::uint64_t spill_m = l2 / 256 * 3 / 2 + 1;
  const struct {
    std::uint64_t m, n;
    const char* name;
  } shapes[] = {{1024, 768, "1024x768"},
                {2048, 1024, "2048x1024"},
                {spill_m, 1500, "spill"}};
  rep.note("l2_bytes", static_cast<std::uint64_t>(l2));
  rep.note("spill_rows", spill_m);

  std::printf("  %-12s", "width bytes");
  for (const auto& s : shapes) {
    std::printf(" %9llux%-5llu", static_cast<unsigned long long>(s.m),
                static_cast<unsigned long long>(s.n));
  }
  std::printf("   (time at 256 B / time at w, 64-bit elements, median of "
              "%d)\n",
              reps);
  std::vector<std::vector<double>> ms;
  for (const auto& s : shapes) {
    ms.push_back(width_ms(s.m, s.n, reps));
  }
  const std::size_t at256 = 2;  // kWidths[2] == 256
  for (std::size_t k = 0; k < std::size(kWidths); ++k) {
    std::printf("  %-12zu", kWidths[k]);
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      const double ratio = ms[s][at256] / ms[s][k];
      std::printf(" %15.3f", ratio);
      rep.add_sample("width_" + std::to_string(kWidths[k]) + "_vs_256_" +
                         shapes[s].name,
                     "ratio", ratio);
    }
    std::printf("\n");
  }

  const kernels::kernel_set& ks =
      kernels::set_for(kernels::resolve_tier(kernels::tier::automatic));
  if (!kernels::has_rotate_rows<float>(ks)) {
    std::printf("  fine pass: tier %s has no blend network; skipped\n",
                kernels::tier_name(ks.t));
  } else {
    std::printf("\n  fine pass on %llux1500 groups, team, blend network / "
                "indexed gather (median of %d):\n",
                static_cast<unsigned long long>(spill_m), reps);
    for (const std::size_t w : {std::size_t{256}, std::size_t{2048}}) {
      const double f32 =
          fine_blend_over_gather<float>(spill_m, 1500, w / 4, reps, ks);
      const double f64 =
          fine_blend_over_gather<double>(spill_m, 1500, w / 8, reps, ks);
      std::printf("  %5zu B   f32 %.3f   f64 %.3f\n", w, f32, f64);
      rep.add_sample("fine_blend_over_gather_f32_" + std::to_string(w),
                     "ratio", f32, false);
      rep.add_sample("fine_blend_over_gather_f64_" + std::to_string(w),
                     "ratio", f64, false);
    }
  }

  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
