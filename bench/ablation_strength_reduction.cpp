// Ablation for Section 4.4: arithmetic strength reduction.  Every engine
// evaluates its index equations with fast_divmod's fixed-point
// reciprocals ("we found a significant performance improvement"); this
// bench measures what they buy over hardware division.  For each shape it
// plans the C2R permutation, then calls that plan's passes directly —
// blocked or skinny, as core/executor.hpp lowers them — once with
// transpose_math<fast_divmod> and once with transpose_math<plain_divmod>,
// alternating on one buffer.  A pass's cost does not depend on the data
// it moves, so the runs need no refill, and pairing the two policies
// inside one run cancels host drift and leaves no cold first call in the
// samples.  Skinny shapes run the scratch-line passes without the
// in-register tile hook, so the ratio isolates the divider.
//
// Reported per pass: the median over pairs of plain time / fast time
// (> 1: the reciprocals win).

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;
using elem = std::uint32_t;
using pass_times = std::array<double, 3>;

template <typename F>
double seconds(F&& f) {
  util::timer clk;
  f();
  return clk.seconds();
}

/// One policy's index math and the cycle memos its passes keep warm, as a
/// transposer arena holds them.
template <typename Divmod>
struct policy {
  explicit policy(const transpose_plan& p) : mm(p.m, p.n) {}
  transpose_math<Divmod> mm;
  detail::col_cycle_memo col_memo;
  detail::cycle_memo memo;
};

/// The blocked engine's C2R passes: prerotate (when gcd(m, n) > 1), row
/// shuffle, column shuffle.
template <typename Math>
pass_times blocked_c2r(elem* a, const transpose_plan& p, const Math& mm,
                       detail::workspace_pool<elem>& pool,
                       detail::col_cycle_memo& memo) {
  const kernels::kernel_set& ks = kernels::set_for(p.ktier);
  const bool stream = detail::blocked_stream_group<elem>(p);
  pass_times t{};
  if (mm.needs_prerotate()) {
    t[0] = seconds([&] {
      detail::rotate_all_parallel(
          a, mm.m, mm.n, p.block_width,
          [&](std::uint64_t j) { return mm.prerotate_offset(j); }, pool, &ks,
          stream);
    });
  }
  t[1] = seconds([&] { detail::c2r_row_pass(a, mm, pool, &ks, false); });
  t[2] = seconds([&] {
    detail::c2r_col_shuffle(a, mm, p.block_width, pool, &memo, &ks, stream);
  });
  return t;
}

/// The skinny engine's C2R passes: fused row pass, rotation, permutation.
/// On chunked layouts the rotation is the identity and is not timed.
template <typename Math>
pass_times skinny_c2r(elem* a, const transpose_plan& p, const Math& mm,
                      detail::workspace<elem>& ws, detail::cycle_memo& memo) {
  const kernels::kernel_set& ks = kernels::set_for(p.ktier);
  const bool stream = detail::skinny_stream_ok<elem>(p.n, p.streaming_stores);
  pass_times t{};
  t[0] = seconds(
      [&] { detail::skinny_fused_scatter(a, mm, ws, &ks, stream); });
  if (!detail::skinny_chunk_layout<elem>(mm.m, mm.n).chunked()) {
    t[1] = seconds([&] { detail::skinny_rotate_p(a, mm, ws, &ks, stream); });
  }
  t[2] = seconds(
      [&] { detail::skinny_permute_q(a, mm, ws, &memo, &ks, stream); });
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_strength_reduction",
      "\"a significant performance improvement\" from reciprocal division "
      "in the index equations",
      cfg);
  util::print_banner(
      "Ablation: Section 4.4 arithmetic strength reduction",
      "\"a significant performance improvement\" from reciprocal division "
      "in the index equations");

  const std::size_t pairs = cfg.samples(21, 5);
  struct shape {
    std::uint64_t m, n;
    const char* note;
  };
  const shape shapes[] = {
      {1536, 1024, "divisible extents"},
      {1021, 1531, "prime extents (c = 1)"},
      {2048, 768, "tall"},
      {600000, 7, "skinny, chunked walk"},
      {200003, 24, "skinny, row walk"},
      {997, 991, "prime, near-square"},
  };
  std::printf("  %zu interleaved pairs per shape; u32 elements; C2R\n\n",
              pairs);
  std::printf("  %-11s %-25s %-8s %-12s %10s %10s %10s\n", "shape", "",
              "engine", "pass", "fast ms", "plain ms", "fast/plain");
  for (const auto& s : shapes) {
    std::vector<elem> buf(s.m * s.n);
    util::fill_iota(std::span<elem>(buf));
    options opts;
    opts.threads = cfg.threads;
    const transpose_plan p = make_directed_plan(
        buf.data(), s.m, s.n, direction::c2r, opts, sizeof(elem));
    const bool skinny = p.engine == engine_kind::skinny;
    const std::array<const char*, 3> names =
        skinny ? std::array<const char*, 3>{"fused_row", "rotation", "permute"}
               : std::array<const char*, 3>{"prerotate", "row_shuffle",
                                            "col_shuffle"};

    util::thread_count_guard team(p.threads);
    std::optional<detail::workspace_pool<elem>> pool;
    detail::workspace<elem> ws;
    if (skinny) {
      detail::reserve_skinny(ws, p.m, p.n, p.threads);
    } else {
      pool.emplace(p.m, p.n, p.block_width, p.threads);
      pool->ensure(util::hardware_threads());
    }
    policy<fast_divmod> fast(p);
    policy<plain_divmod> plain(p);
    const auto run = [&](auto& pol) {
      return skinny ? skinny_c2r(buf.data(), p, pol.mm, ws, pol.memo)
                    : blocked_c2r(buf.data(), p, pol.mm, *pool, pol.col_memo);
    };
    run(fast);  // warm-up: page faults, memo discovery
    run(plain);

    std::array<std::vector<double>, 3> fast_ms, plain_ms, ratio;
    for (std::size_t r = 0; r < pairs; ++r) {
      // Alternate which policy goes first so neither always inherits the
      // other's cache state.
      pass_times tf{};
      pass_times tp{};
      if (r % 2 == 0) {
        tf = run(fast);
        tp = run(plain);
      } else {
        tp = run(plain);
        tf = run(fast);
      }
      for (std::size_t k = 0; k < 3; ++k) {
        if (tf[k] > 0.0 && tp[k] > 0.0) {
          fast_ms[k].push_back(tf[k] * 1e3);
          plain_ms[k].push_back(tp[k] * 1e3);
          ratio[k].push_back(tp[k] / tf[k]);
        }
      }
    }

    char shape_str[32];
    std::snprintf(shape_str, sizeof shape_str, "%llux%llu",
                  static_cast<unsigned long long>(s.m),
                  static_cast<unsigned long long>(s.n));
    for (std::size_t k = 0; k < 3; ++k) {
      if (ratio[k].empty()) {
        continue;  // no pre-rotation when gcd(m, n) = 1, no chunked rotation
      }
      const double speedup = util::median(ratio[k]);
      std::printf("  %-11s %-25s %-8s %-12s %10.3f %10.3f %9.2fx\n",
                  shape_str, s.note, engine_name(p.engine), names[k],
                  util::median(fast_ms[k]), util::median(plain_ms[k]),
                  speedup);
      rep.add_sample(std::string("fast_over_plain.") + names[k], "ratio",
                     speedup);
    }
  }
  std::printf("\n(fast/plain > 1: the Section 4.4 reciprocals beat hardware "
              "division on this host for that pass)\n");

  rep.write();
  return 0;
}
