#include "layers.hpp"

#include <array>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/executor.hpp"

namespace perfbench {

namespace {

namespace ip = inplace;
namespace ipd = inplace::detail;
namespace ipk = inplace::kernels;

using pass_times = std::array<double, 3>;

/// Runs one plan's passes one by one, timing each.  Owns its scratch and
/// cycle memos exactly like the transposer arena does, so after the first
/// (memo-filling) run every run is the warm path.
template <typename T>
struct pass_runner {
  virtual ~pass_runner() = default;
  virtual pass_times run(T* a) = 0;
};

template <typename T>
class blocked_runner final : public pass_runner<T> {
 public:
  explicit blocked_runner(const ip::transpose_plan& p)
      : plan_(p), mm_(p.m, p.n), pool_(p.m, p.n, p.block_width, p.threads) {}

  // Mirrors detail::c2r_blocked / r2c_blocked pass for pass.
  pass_times run(T* a) override {
    const std::uint64_t m = mm_.m;
    const std::uint64_t n = mm_.n;
    const std::uint64_t width = plan_.block_width;
    const ipk::kernel_set& ks = ipk::set_for(plan_.ktier);
    const bool stream_group =
        plan_.streaming_stores &&
        ipk::streaming_profitable(
            static_cast<std::size_t>(width * m) * sizeof(T), plan_.ktier);
    ip::util::thread_count_guard guard(plan_.threads);
    pool_.ensure(ip::util::hardware_threads());
    const auto rotate = [&](bool inverse) {
      ipd::rotate_all_parallel(
          a, m, n, width,
          [&](std::uint64_t j) {
            return inverse ? mm_.prerotate_inv_offset(j)
                           : mm_.prerotate_offset(j);
          },
          pool_, &ks, stream_group);
    };
    pass_times t{};
    if (plan_.dir == ip::direction::c2r) {
      if (mm_.needs_prerotate()) {
        t[0] = time_call([&] { rotate(false); });
      }
      t[1] = time_call([&] { ipd::c2r_row_pass(a, mm_, pool_, &ks, false); });
      t[2] = time_call([&] {
        ipd::c2r_col_shuffle(a, mm_, width, pool_, &memo_, &ks, stream_group);
      });
    } else {
      t[2] = time_call([&] {
        ipd::r2c_col_shuffle(a, mm_, width, pool_, &memo_, &ks, stream_group);
      });
      t[1] = time_call([&] { ipd::r2c_row_pass(a, mm_, pool_, &ks, false); });
      if (mm_.needs_prerotate()) {
        t[0] = time_call([&] { rotate(true); });
      }
    }
    return t;
  }

 private:
  ip::transpose_plan plan_;
  ip::transpose_math<ip::fast_divmod> mm_;
  ipd::workspace_pool<T> pool_;
  ipd::col_cycle_memo memo_;
};

/// The skinny engine's three passes over elements of type E (T itself, or
/// a W-lane chunk for tile plans, whose fused row pass carries the
/// in-register tile pass as its block hook, as detail::tile_runner does).
template <typename T, typename E, unsigned W>
class skinny_runner final : public pass_runner<T> {
 public:
  explicit skinny_runner(const ip::transpose_plan& p)
      : plan_(p), mm_(p.m / W, p.n) {
    ipd::reserve_skinny(ws_, mm_.m, mm_.n);
  }

  // Mirrors detail::c2r_skinny / r2c_skinny pass for pass.
  pass_times run(T* data) override {
    E* a = reinterpret_cast<E*>(data);
    const ipk::kernel_set& ks = ipk::set_for(plan_.ktier);
    const bool stream = ipd::skinny_stream_ok<E>(mm_.n, plan_.streaming_stores);
    const std::uint64_t nregs = plan_.n;
    pass_times t{};
    if (plan_.dir == ip::direction::c2r) {
      t[0] = time_call([&] {
        if constexpr (W == 1) {
          ipd::skinny_fused_scatter(a, mm_, ws_, &ks, stream);
        } else {
          ipd::skinny_fused_scatter(
              a, mm_, ws_, &ks, stream, [&ks, nregs](E* rows, std::uint64_t k) {
                ipk::tile_pass<T>(ks, reinterpret_cast<T*>(rows), nregs, k,
                                  /*forward=*/true);
              });
        }
      });
      t[1] = time_call([&] { ipd::skinny_rotate_p(a, mm_, ws_, &ks, stream); });
      t[2] = time_call(
          [&] { ipd::skinny_permute_q(a, mm_, ws_, &memo_, &ks, stream); });
    } else {
      t[2] = time_call(
          [&] { ipd::skinny_permute_q_inv(a, mm_, ws_, &memo_, &ks, stream); });
      t[1] = time_call(
          [&] { ipd::skinny_rotate_p_inv(a, mm_, ws_, &ks, stream); });
      t[0] = time_call([&] {
        if constexpr (W == 1) {
          ipd::skinny_fused_gather(a, mm_, ws_, &ks, stream);
        } else {
          ipd::skinny_fused_gather(
              a, mm_, ws_, &ks, stream, [&ks, nregs](E* rows, std::uint64_t k) {
                ipk::tile_pass<T>(ks, reinterpret_cast<T*>(rows), nregs, k,
                                  /*forward=*/false);
              });
        }
      });
    }
    return t;
  }

 private:
  ip::transpose_plan plan_;
  ip::transpose_math<ip::fast_divmod> mm_;
  ipd::workspace<E> ws_;
  ipd::cycle_memo memo_;
};

template <typename T, unsigned W>
std::unique_ptr<pass_runner<T>> make_tile_runner(const ip::transpose_plan& p) {
  return std::make_unique<skinny_runner<T, ipk::lane_chunk<T, W>, W>>(p);
}

template <typename T>
std::unique_ptr<pass_runner<T>> make_runner(const ip::transpose_plan& p) {
  if (!p.strength_reduction || p.rung != ip::scratch_rung::full) {
    throw std::runtime_error("perfbench: pass runner needs a full-rung, "
                             "strength-reduced plan");
  }
  if (p.engine == ip::engine_kind::blocked) {
    return std::make_unique<blocked_runner<T>>(p);
  }
  if (p.engine != ip::engine_kind::skinny) {
    throw std::runtime_error("perfbench: no pass runner for engine " +
                             std::string(ip::engine_name(p.engine)));
  }
  switch (p.tile_block) {
    case 0:
      return std::make_unique<skinny_runner<T, T, 1>>(p);
    case 2:
      return make_tile_runner<T, 2>(p);
    case 4:
      return make_tile_runner<T, 4>(p);
    case 8:
      return make_tile_runner<T, 8>(p);
    case 16:
      return make_tile_runner<T, 16>(p);
    default:
      throw std::runtime_error("perfbench: unknown tile width");
  }
}

double sum3(const pass_times& t) { return t[0] + t[1] + t[2]; }

}  // namespace

template <typename T>
void probe_2d(T* a, std::uint64_t rows, std::uint64_t cols, int reps,
              layer_acc& acc) {
  const std::uint64_t elems = rows * cols;
  const double bytes = static_cast<double>(eq37_bytes(elems, sizeof(T)));
  const auto check = [&](bool transposed) {
    const std::uint64_t bad = transposed ? check_transposed(a, rows, cols)
                                         : check_iota(a, elems);
    ++acc.attempted;
    acc.failed += bad != 0 ? 1 : 0;
  };
  fill_iota(a, elems);

  // plan: make_plan for the key and its inverse key.
  ip::transpose_plan plan[2];
  const std::uint64_t ext[2][2] = {{rows, cols}, {cols, rows}};
  const int plan_reps = reps >= 8 ? 64 * reps : 16;
  for (int d = 0; d < 2; ++d) {
    const double t = time_call([&] {
      for (int k = 0; k < plan_reps; ++k) {
        plan[d] = ip::make_plan(a, ext[d][0], ext[d][1],
                                ip::storage_order::row_major, {}, sizeof(T));
      }
    });
    acc.make_plan_us.push_back(t / plan_reps * 1e6);
    acc.tile_gate_hits += plan[d].tile_block != 0 ? 1 : 0;
  }

  // executor: arena build, first execute (cycle-memo fill) and warm.
  std::unique_ptr<ip::transposer<T>> tr[2];
  for (int d = 0; d < 2; ++d) {
    acc.arena_build_ms.push_back(
        1e3 * time_call([&] { tr[d] = std::make_unique<ip::transposer<T>>(plan[d]); }));
  }
  double first[2];
  for (int d = 0; d < 2; ++d) {
    first[d] = time_call([&] { tr[d]->execute(a, false); });
    check(d == 0);
  }
  std::vector<double> warm[2];
  for (int rep = 0; rep < reps; ++rep) {
    for (int d = 0; d < 2; ++d) {
      warm[d].push_back(time_call([&] { tr[d]->execute(a, false); }));
      check(d == 0);
    }
  }
  for (int d = 0; d < 2; ++d) {
    acc.first_exec_extra_ms.push_back(1e3 * (first[d] - median(warm[d])));
    acc.scratch_bytes += static_cast<double>(tr[d]->cached_bytes());
    acc.degraded += tr[d]->degraded() ? 1 : 0;
  }

  // Pass-by-pass composition; the first run fills the runner's memos.
  std::unique_ptr<pass_runner<T>> pr[2] = {make_runner<T>(plan[0]),
                                           make_runner<T>(plan[1])};
  std::vector<double> sums[2];
  pass_times tot[2] = {};
  for (int rep = 0; rep <= reps; ++rep) {
    for (int d = 0; d < 2; ++d) {
      const pass_times t = pr[d]->run(a);
      check(d == 0);
      if (rep > 0) {
        sums[d].push_back(sum3(t));
        for (int k = 0; k < 3; ++k) {
          tot[d][k] += t[k];
        }
      }
    }
  }
  for (int d = 0; d < 2; ++d) {
    const int dir = plan[d].dir == ip::direction::c2r ? 0 : 1;
    const double frac = median(sums[d]) / median(warm[d]);
    const bool blocked = plan[d].engine == ip::engine_kind::blocked;
    for (int k = 0; k < 3; ++k) {
      if (tot[d][k] <= 0) {
        continue;  // pass not run (coprime: no pre-rotation)
      }
      (blocked ? acc.blk_sec : acc.sk_sec)[dir][k] += tot[d][k];
      (blocked ? acc.blk_bytes : acc.sk_bytes)[dir][k] += bytes * reps;
    }
    (blocked ? acc.blk_sum_frac : acc.sk_sum_frac).push_back(frac);
    if (!blocked) {
      acc.sk_all_bytes += bytes * reps;
      acc.sk_tile_bytes += plan[d].tile_block != 0 ? bytes * reps : 0.0;
    }
  }

  // kernels: the standalone tile pass over the whole buffer, forward then
  // inverse, which restores the iota pattern.
  if (plan[0].tile_block != 0) {
    const ipk::kernel_set& ks = ipk::set_for(plan[0].ktier);
    const std::uint64_t nregs = plan[0].n;
    const std::uint64_t blocks = plan[0].m / plan[0].tile_block;
    for (int rep = 0; rep < reps; ++rep) {
      for (const bool fwd : {true, false}) {
        acc.tile_sec +=
            time_call([&] { ipk::tile_pass<T>(ks, a, nregs, blocks, fwd); });
        acc.tile_bytes += bytes;
      }
      check(false);
    }
  }
}

template <typename T>
double front_end_us(ip::transpose_context& ctx, T* a, std::uint64_t rows,
                    std::uint64_t cols, int reps) {
  fill_iota(a, rows * cols);
  ip::transposer<T> fwd(rows, cols);
  ip::transposer<T> back(cols, rows);
  ctx.transpose(a, rows, cols);  // warm the context's key pair
  ctx.transpose(a, cols, rows);
  fwd(a);
  back(a);
  std::vector<double> via_ctx;
  std::vector<double> direct;
  for (int rep = 0; rep < reps; ++rep) {
    via_ctx.push_back(time_call([&] { ctx.transpose(a, rows, cols); }));
    via_ctx.push_back(time_call([&] { ctx.transpose(a, cols, rows); }));
    direct.push_back(time_call([&] { fwd.execute(a, true); }));
    direct.push_back(time_call([&] { back.execute(a, true); }));
  }
  return (median(via_ctx) - median(direct)) * 1e6;
}

void add_engine_metrics(report& r, const layer_acc& own,
                        const layer_acc& side, const roof& rf) {
  static const char* const dirs[2] = {"c2r", "r2c"};
  static const char* const blk[3] = {"prerotate", "row_shuffle", "col_shuffle"};
  static const char* const sk[3] = {"fused_row", "rotate", "permute"};
  const auto gb = [](double bytes, double sec) {
    return sec > 0 ? bytes / sec / 1e9 : 0.0;
  };

  r.add("kernels.copy_roof_gbps", rf.copy_gbps, "GB/s");
  r.add("kernels.stream_roof_gbps", rf.stream_gbps, "GB/s");
  const layer_acc& tl = own.has_tile() ? own : side;
  r.add("kernels.tile_pass_gbps", gb(tl.tile_bytes, tl.tile_sec), "GB/s");

  const layer_acc& b = own.has_blocked() ? own : side;
  for (int d = 0; d < 2; ++d) {
    for (int k = 0; k < 3; ++k) {
      const double g = gb(b.blk_bytes[d][k], b.blk_sec[d][k]);
      const std::string base =
          std::string("engine_blocked.") + dirs[d] + "." + blk[k];
      r.add(base + "_gbps", g, "GB/s");
      r.add(base + "_roof_frac", g / rf.copy_gbps, "ratio");
    }
  }
  // The separately timed passes must add up to the one-call time: the
  // composition is the engine's own pass sequence, nothing more or less.
  const auto reconcile = [&r](const char* engine, double frac) {
    if (!(frac > 2.0 / 3.0 && frac < 1.5)) {
      std::fprintf(stderr,
                   "perfbench: %s passes sum to %.3f of the one-call time\n",
                   engine, frac);
      r.correct = false;
    }
  };
  reconcile("engine_blocked", median(b.blk_sum_frac));
  r.add("engine_blocked.pass_sum_frac", median(b.blk_sum_frac), "ratio");

  const layer_acc& s = own.has_skinny() ? own : side;
  for (int d = 0; d < 2; ++d) {
    for (int k = 0; k < 3; ++k) {
      const double g = gb(s.sk_bytes[d][k], s.sk_sec[d][k]);
      const std::string base = std::string("skinny.") + dirs[d] + "." + sk[k];
      r.add(base + "_gbps", g, "GB/s");
      r.add(base + "_roof_frac", g / rf.copy_gbps, "ratio");
    }
  }
  reconcile("skinny", median(s.sk_sum_frac));
  r.add("skinny.pass_sum_frac", median(s.sk_sum_frac), "ratio");
  r.add("skinny.tile_share",
        s.sk_all_bytes > 0 ? s.sk_tile_bytes / s.sk_all_bytes : 0.0, "ratio");

  const layer_acc& e = own.arena_build_ms.empty() ? side : own;
  r.add("executor.arena_build_ms", median(e.arena_build_ms), "ms");
  r.add("executor.first_exec_extra_ms", median(e.first_exec_extra_ms), "ms");
  r.add("executor.scratch_mib", e.scratch_bytes / (1024.0 * 1024.0), "MiB");
  r.add("executor.degraded", e.degraded, "count");
  r.add("plan.make_plan_us", median(e.make_plan_us), "us");
  r.add("plan.tile_gate_hits", e.tile_gate_hits, "count");
}

template void probe_2d(std::uint32_t*, std::uint64_t, std::uint64_t, int,
                       layer_acc&);
template void probe_2d(std::uint64_t*, std::uint64_t, std::uint64_t, int,
                       layer_acc&);
template double front_end_us(ip::transpose_context&, std::uint32_t*,
                             std::uint64_t, std::uint64_t, int);
template double front_end_us(ip::transpose_context&, std::uint64_t*,
                             std::uint64_t, std::uint64_t, int);

}  // namespace perfbench
