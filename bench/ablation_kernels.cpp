// Ablation for the hot-path kernel layer (cpu/kernels/): what the
// vectorized tiers (SIMD gathers, software prefetch, non-temporal
// streaming stores) buy over the portable scalar loops on working sets
// that exceed the last-level cache — the regime the tentpole targets.
//
// Two gates, both independent of absolute machine speed:
//   1. bit-exactness: the forced-scalar and native-tier runs of every
//      shape must produce identical buffers (the kernels are pure
//      permutations; any divergence is a correctness bug, not noise);
//   2. speedup: on at least one shape whose working set is >= the probed
//      L3 size, the native tier must be >= 1.2x the forced-scalar tier.
//      The bar is set by the memory wall, not ambition: on the committed
//      baseline host the native tier runs the best >L3 shape at ~10 GB/s
//      — the machine's single-core DRAM bandwidth — so the scalar
//      baseline is itself only ~1.25-1.3x away from the roof and no
//      end-to-end number above that is honestly reachable (per-stage,
//      the rotation kernels reach ~1.35x; the JSON telemetry carries the
//      stage spans).  1.2x sits outside the +-8% run-to-run noise of a
//      shared VM while still far above any regression signature seen in
//      development (broken dispatch reads 1.0x, NT misuse 0.4-0.9x).
//      The gate is skipped (exit 0, with a note in the JSON) when the
//      native tier IS scalar (no vector ISA compiled/available, or
//      INPLACE_FORCE_KERNEL_TIER=scalar) and when --scale shrinks every
//      shape below L3 (the ctest smoke run: bit-exactness still checked,
//      timing noise not trusted).
//
// Beware measuring memcpy instead of the engines: glibc's memcpy already
// switches to non-temporal stores for huge copies, so the gate times
// whole in-place transposes (gathers + rotations + copy-backs), where
// the scalar/vector contrast is real work, not a libc rematch.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/executor.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

/// Best-of-reps milliseconds per tier for one in-place transpose of
/// m x n doubles.  The scalar and native reps interleave (S N S N ...)
/// so that slow machine-level drift — noisy neighbors on shared hosts
/// dwarf the effect under test — cancels out of the ratio instead of
/// landing entirely on whichever tier ran last; within the interleaved
/// series each tier takes its *minimum*, because interference noise is
/// strictly additive and the minimum estimates the uninterfered run.
struct tier_pair_ms {
  double scalar_ms = 0.0;
  double native_ms = 0.0;
};
tier_pair_ms run_pair_ms(std::uint64_t m, std::uint64_t n,
                         kernels::tier native, int reps,
                         std::vector<double>& buf) {
  options scalar_opts;
  scalar_opts.kernel = kernels::tier::scalar;
  transposer<double> scalar_tr(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n),
                               storage_order::row_major, scalar_opts);
  options native_opts;
  native_opts.kernel = native;
  transposer<double> native_tr(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n),
                               storage_order::row_major, native_opts);
  std::vector<double> scalar_ms;
  std::vector<double> native_ms;
  for (int r = 0; r < reps; ++r) {
    util::fill_iota(std::span<double>(buf));
    util::timer sclk;
    scalar_tr(buf.data());
    scalar_ms.push_back(sclk.seconds() * 1e3);
    util::fill_iota(std::span<double>(buf));
    util::timer nclk;
    native_tr(buf.data());
    native_ms.push_back(nclk.seconds() * 1e3);
  }
  return {*std::min_element(scalar_ms.begin(), scalar_ms.end()),
          *std::min_element(native_ms.begin(), native_ms.end())};
}

/// One transpose with tier `t` from an iota start; returns the buffer
/// for the bit-exactness comparison.
std::vector<double> result_of(std::uint64_t m, std::uint64_t n,
                              kernels::tier t) {
  std::vector<double> buf(static_cast<std::size_t>(m * n));
  util::fill_iota(std::span<double>(buf));
  options opts;
  opts.kernel = t;
  transposer<double> tr(static_cast<std::size_t>(m),
                        static_cast<std::size_t>(n),
                        storage_order::row_major, opts);
  tr(buf.data());
  return buf;
}

/// Shrinks a row count by --scale while keeping at least a few blocks.
std::uint64_t scaled_rows(std::uint64_t rows, double scale) {
  if (scale >= 1.0) {
    return rows;
  }
  const auto scaled =
      static_cast<std::uint64_t>(static_cast<double>(rows) * scale);
  return std::max<std::uint64_t>(scaled, 64);
}

/// scaled_rows for the in-register tile probes: rounded up to a lane
/// multiple (16 covers every tier's f64 lane width) and floored high
/// enough that m / lanes > n keeps the tile gate engaged, so even the
/// smoke run's bit-exactness pass goes through the ladder kernels.
std::uint64_t scaled_tile_rows(std::uint64_t rows, double scale) {
  const std::uint64_t scaled =
      std::max<std::uint64_t>(scaled_rows(rows, scale), 1024);
  return (scaled + 15) / 16 * 16;
}

/// One tile-probe transpose of m x n doubles with the given options,
/// from an iota start; returns the buffer for bit-exactness checks.
std::vector<double> result_with(std::uint64_t m, std::uint64_t n,
                                const options& opts) {
  std::vector<double> buf(static_cast<std::size_t>(m * n));
  util::fill_iota(std::span<double>(buf));
  transposer<double> tr(static_cast<std::size_t>(m),
                        static_cast<std::size_t>(n),
                        storage_order::row_major, opts);
  tr(buf.data());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_kernels",
      "vectorized kernel tiers (SIMD gathers + prefetch + NT stores) vs "
      "forced-scalar on >L3 working sets",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: hot-path kernel dispatch layer",
      "native tier >= 1.2x forced-scalar on at least one >L3 shape, "
      "bit-identical results");

  const kernels::tier native = kernels::resolve_tier(kernels::tier::automatic);
  const std::size_t l3 = kernels::probed_caches().l3_bytes;
  std::printf("native tier: %s, probed L3: %.1f MiB\n\n",
              kernels::tier_name(native),
              static_cast<double>(l3) / (1024.0 * 1024.0));
  rep.note("native_tier", kernels::tier_name(native));
  rep.note("l3_bytes", static_cast<double>(l3));

  // All >= the probed L3 in doubles.  8191x5120: coprime (8191 prime), so
  // the column shuffle's strided gathers carry the whole pass — the
  // vpgather MLP win.  16384x2560: gcd-rich and tall, so the pre-rotation
  // (coarse cycle following + fine indexed gathers) dominates — the
  // rotation-kernel win, and the shape expected to clear the speedup
  // gate.  2621440x16: skinny engine, whole "rows" of two cache lines —
  // not expected to clear the gate; it pins the small-copy streaming
  // guard (per-row fenced NT copy-backs once made this shape 2.6x
  // *slower*).  --scale shrinks the row counts for smoke runs.
  struct shape {
    std::uint64_t m, n;
  };
  const shape bases[] = {{8191, 5120}, {16384, 2560}, {2621440, 16}};
  const int reps = static_cast<int>(cfg.samples(5, 3));

  bool bit_exact = true;
  bool any_gated = false;
  bool gate_met = false;
  std::printf("  %-14s %10s %12s %12s %9s %6s\n", "shape", "MiB",
              "scalar ms", "native ms", "speedup", "gated");
  for (const shape& base : bases) {
    const std::uint64_t m = scaled_rows(base.m, cfg.scale);
    const std::uint64_t n = base.n;
    const std::size_t bytes =
        static_cast<std::size_t>(m * n) * sizeof(double);
    const bool gated = native != kernels::tier::scalar && bytes >= l3;

    // Bit-exactness first (also warms the buffers/page tables).
    {
      const std::vector<double> got_scalar =
          result_of(m, n, kernels::tier::scalar);
      const std::vector<double> got_native = result_of(m, n, native);
      if (std::memcmp(got_scalar.data(), got_native.data(),
                      bytes) != 0) {
        std::fprintf(stderr,
                     "FAIL %llux%llu: native tier result differs from "
                     "forced-scalar\n",
                     static_cast<unsigned long long>(m),
                     static_cast<unsigned long long>(n));
        bit_exact = false;
      }
    }

    std::vector<double> buf(static_cast<std::size_t>(m * n));
    const tier_pair_ms pair = run_pair_ms(m, n, native, reps, buf);
    const double scalar_ms = pair.scalar_ms;
    const double native_ms = pair.native_ms;
    const double speedup = scalar_ms / native_ms;
    std::printf("  %6llux%-7llu %10.1f %12.1f %12.1f %8.2fx %6s\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n),
                static_cast<double>(bytes) / (1024.0 * 1024.0), scalar_ms,
                native_ms, speedup, gated ? "yes" : "no");
    rep.add_sample("scalar_ms", "ms", scalar_ms,
                   /*higher_is_better=*/false);
    rep.add_sample("native_ms", "ms", native_ms,
                   /*higher_is_better=*/false);
    rep.add_sample("speedup", "x", speedup);
    if (gated) {
      any_gated = true;
      if (speedup >= 1.2) {
        gate_met = true;
      }
    }
  }

  // --- in-register tile probes -------------------------------------------
  //
  // The Fig. 7/8/9 regime at the kernel layer: tall AoS<->SoA problems
  // (small struct sizes n, millions of records m) where the skinny
  // engine's chunk decomposition hands whole register tiles to the
  // vpunpck/vpermd ladders.  Foil = the SAME native tier with the tile
  // knob off (options::tile_mode::off), so the contrast isolates the
  // in-register pass fusion from plain SIMD dispatch; bit-exactness is
  // still checked against forced-scalar.  Gate: >= 1.25x on >= 2 of the
  // 3 probe shapes, armed only at full scale (all probes >= L3 and
  // tiled); the smoke run keeps the bit-exactness sweep.
  const shape tile_bases[] = {{2621440, 16}, {5242880, 8}, {10485760, 4}};
  bool tile_bit_exact = true;
  int tile_gated = 0;
  int tile_hits = 0;
  std::printf("\n  in-register tile vs scratch-chunk foil (f64 AoS<->SoA)\n");
  std::printf("  %-14s %10s %12s %12s %9s %6s\n", "shape", "MiB",
              "foil ms", "tile ms", "speedup", "gated");
  for (const shape& base : tile_bases) {
    const std::uint64_t m = scaled_tile_rows(base.m, cfg.scale);
    const std::uint64_t n = base.n;
    const std::size_t bytes =
        static_cast<std::size_t>(m * n) * sizeof(double);
    options tile_opts;  // native tier, tile automatic
    options foil_opts;
    foil_opts.tile = options::tile_mode::off;
    transposer<double> tile_tr(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n),
                               storage_order::row_major, tile_opts);
    transposer<double> foil_tr(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n),
                               storage_order::row_major, foil_opts);
    const bool tiled = tile_tr.plan().tile_block != 0;
    const bool gated = tiled && bytes >= l3;

    {
      options scalar_opts;
      scalar_opts.kernel = kernels::tier::scalar;
      const std::vector<double> got_scalar = result_with(m, n, scalar_opts);
      const std::vector<double> got_tile = result_with(m, n, tile_opts);
      if (std::memcmp(got_scalar.data(), got_tile.data(), bytes) != 0) {
        std::fprintf(stderr,
                     "FAIL %llux%llu: in-register tile result differs "
                     "from forced-scalar\n",
                     static_cast<unsigned long long>(m),
                     static_cast<unsigned long long>(n));
        tile_bit_exact = false;
      }
    }

    // Interleaved best-of-reps, same drift-cancelling discipline as the
    // scalar/native pair above.
    std::vector<double> buf(static_cast<std::size_t>(m * n));
    double tile_ms = 0.0;
    double foil_ms = 0.0;
    {
      std::vector<double> tile_samples;
      std::vector<double> foil_samples;
      for (int r = 0; r < reps; ++r) {
        util::fill_iota(std::span<double>(buf));
        util::timer fclk;
        foil_tr(buf.data());
        foil_samples.push_back(fclk.seconds() * 1e3);
        util::fill_iota(std::span<double>(buf));
        util::timer tclk;
        tile_tr(buf.data());
        tile_samples.push_back(tclk.seconds() * 1e3);
      }
      foil_ms = *std::min_element(foil_samples.begin(), foil_samples.end());
      tile_ms = *std::min_element(tile_samples.begin(), tile_samples.end());
    }
    const double speedup = foil_ms / tile_ms;
    std::printf("  %7llux%-6llu %10.1f %12.1f %12.1f %8.2fx %6s\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n),
                static_cast<double>(bytes) / (1024.0 * 1024.0), foil_ms,
                tile_ms, speedup, gated ? "yes" : "no");
    rep.add_sample("tile_foil_ms", "ms", foil_ms,
                   /*higher_is_better=*/false);
    rep.add_sample("tile_ms", "ms", tile_ms, /*higher_is_better=*/false);
    rep.add_sample("tile_speedup", "x", speedup);
    if (gated) {
      ++tile_gated;
      if (speedup >= 1.25) {
        ++tile_hits;
      }
    }
  }
  const int tile_shapes =
      static_cast<int>(sizeof(tile_bases) / sizeof(tile_bases[0]));
  const bool tile_gate_applicable = tile_gated == tile_shapes;
  const bool tile_gate_met = tile_hits >= 2;

  rep.note("bit_exact", bit_exact);
  rep.note("gate_applicable", any_gated);
  rep.note("gate_met", gate_met);
  rep.note("tile_bit_exact", tile_bit_exact);
  rep.note("tile_gate_applicable", tile_gate_applicable);
  rep.note("tile_gate_met", tile_gate_met);
  rep.note("tile_gate_hits", static_cast<double>(tile_hits));
  rep.attach_telemetry(coll);
  rep.write();

  if (!bit_exact || !tile_bit_exact) {
    std::fprintf(stderr,
                 "ablation_kernels: tier divergence — kernel correctness "
                 "regression\n");
    return 1;
  }
  if (tile_gate_applicable && !tile_gate_met) {
    std::fprintf(stderr,
                 "ablation_kernels: in-register tile cleared 1.25x on only "
                 "%d of %d probe shapes (need 2) — tile perf regression\n",
                 tile_hits, tile_shapes);
    return 1;
  }
  if (!tile_gate_applicable) {
    std::printf("\ntile speedup gate skipped (%s)\n",
                tile_gated == 0 && cfg.scale < 1.0
                    ? "probe shapes below L3 at this --scale"
                    : "in-register tile not engaged on every probe shape");
  }
  if (!any_gated) {
    std::printf(
        "\nspeedup gate skipped (%s)\n",
        native == kernels::tier::scalar
            ? "native tier is scalar; nothing to compare"
            : "all shapes below L3 at this --scale; timing not trusted");
    return 0;
  }
  if (!gate_met) {
    std::fprintf(stderr,
                 "ablation_kernels: no >L3 shape reached 1.2x — vector "
                 "kernel perf regression\n");
    return 1;
  }
  std::printf("\nspeedup gate met (>= 1.2x on a >L3 shape)\n");
  return 0;
}
