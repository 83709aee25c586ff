// Google-benchmark microbenchmarks for the primitives the engines are
// built from: strength-reduced division (Section 4.4), the rotation
// variants (Section 4.6), row-shuffle forms (Sections 4.2-4.3), the
// cycle-following row permutation (Section 4.7), and the in-register warp
// transpose (Section 6.2).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/equations.hpp"
#include "core/executor.hpp"
#include "core/transpose.hpp"
#include "core/permute.hpp"
#include "core/rotate.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "cpu/kernels/tile_inreg.hpp"
#include "simd/register_transpose.hpp"
#include "simd/vectorized.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"

namespace {

using namespace inplace;

// --- Section 4.4: division strength reduction ------------------------------

void BM_HardwareDivMod(benchmark::State& state) {
  const std::uint64_t d = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t acc = 0;
  std::uint64_t x = 123456789;
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      acc += x / d + x % d;
      x = x * 2862933555777941757ull + 3037000493ull;
      x &= 0xffffffffull;
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HardwareDivMod)->Arg(7)->Arg(1000)->Arg(1048576);

void BM_FastDivMod(benchmark::State& state) {
  const fast_divmod fd(static_cast<std::uint64_t>(state.range(0)));
  std::uint64_t acc = 0;
  std::uint64_t x = 123456789;
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      acc += fd.div(x) + fd.mod(x);
      x = x * 2862933555777941757ull + 3037000493ull;
      x &= 0xffffffffull;
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FastDivMod)->Arg(7)->Arg(1000)->Arg(1048576);

// --- Section 4.6: rotation variants ----------------------------------------

constexpr std::uint64_t kRotRows = 4096;
constexpr std::uint64_t kRotCols = 512;

void BM_RotateColumnsNaive(benchmark::State& state) {
  std::vector<float> a(kRotRows * kRotCols);
  detail::workspace<float> ws;
  ws.reserve(kRotRows, kRotCols, 16);
  for (auto _ : state) {
    for (std::uint64_t j = 0; j < kRotCols; ++j) {
      detail::rotate_column_naive(a.data(), kRotRows, kRotCols, j,
                                  j % kRotRows, ws.line.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 2);
}
BENCHMARK(BM_RotateColumnsNaive)->Unit(benchmark::kMillisecond);

void BM_RotateColumnsCacheAware(benchmark::State& state) {
  std::vector<float> a(kRotRows * kRotCols);
  detail::workspace<float> ws;
  ws.reserve(kRotRows, kRotCols, 16);
  for (auto _ : state) {
    detail::rotate_columns_blocked(
        a.data(), kRotRows, kRotCols, 16,
        [](std::uint64_t j) { return j; }, ws);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 2);
}
BENCHMARK(BM_RotateColumnsCacheAware)->Unit(benchmark::kMillisecond);

// --- Sections 4.2-4.3: row shuffle forms ------------------------------------

void BM_RowShuffleScatterDPrime(benchmark::State& state) {
  const std::uint64_t m = 512;
  const std::uint64_t n = 2048;
  const transpose_math<fast_divmod> mm(m, n);
  std::vector<float> a(m * n);
  detail::workspace<float> ws;
  ws.reserve(m, n, 16);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < m; ++i) {
      detail::row_scatter_inplace(
          a.data() + i * n, n, ws.line.data(),
          [&](std::uint64_t j) { return mm.d_prime(i, j); });
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 2);
}
BENCHMARK(BM_RowShuffleScatterDPrime)->Unit(benchmark::kMillisecond);

void BM_RowShuffleGatherDPrimeInv(benchmark::State& state) {
  const std::uint64_t m = 512;
  const std::uint64_t n = 2048;
  const transpose_math<fast_divmod> mm(m, n);
  std::vector<float> a(m * n);
  detail::workspace<float> ws;
  ws.reserve(m, n, 16);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < m; ++i) {
      detail::row_gather_inplace(
          a.data() + i * n, n, ws.line.data(),
          [&](std::uint64_t j) { return mm.d_prime_inv(i, j); });
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 2);
}
BENCHMARK(BM_RowShuffleGatherDPrimeInv)->Unit(benchmark::kMillisecond);

// --- Section 4.7: cycle-following row permutation ---------------------------

void BM_RowPermuteCycleFollowing(benchmark::State& state) {
  const std::uint64_t m = 4096;
  const std::uint64_t n = 512;
  const transpose_math<fast_divmod> mm(m, n);
  std::vector<float> a(m * n);
  detail::workspace<float> ws;
  ws.reserve(m, n, 16);
  const auto q = [&](std::uint64_t i) { return mm.q(i); };
  detail::cycle_memo memo;
  for (auto _ : state) {
    // One discovery per iteration, replayed by every 16-column group.
    memo.ready = false;
    for (std::uint64_t j0 = 0; j0 < n; j0 += 16) {
      detail::permute_row_group(a.data(), m, n, j0, 16, q, &memo, 1, ws,
                                ws.subrow.data(), nullptr, false);
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 2);
}
BENCHMARK(BM_RowPermuteCycleFollowing)->Unit(benchmark::kMillisecond);

// --- Incremental d' evaluator (Section 4.4 extended) -------------------------

void BM_RowShuffleIncremental(benchmark::State& state) {
  const std::uint64_t m = 512;
  const std::uint64_t n = 2048;
  const transpose_math<fast_divmod> mm(m, n);
  std::vector<float> a(m * n);
  detail::workspace<float> ws;
  ws.reserve(m, n, 16);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < m; ++i) {
      float* row = a.data() + i * n;
      float* tmp = ws.line.data();
      d_prime_stepper step(mm, i);
      for (std::uint64_t j = 0; j < n; ++j, step.advance()) {
        tmp[step.value()] = row[j];
      }
      std::copy(tmp, tmp + n, row);
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 2);
}
BENCHMARK(BM_RowShuffleIncremental)->Unit(benchmark::kMillisecond);

// --- Register-tile staged conversion (simd/vectorized.hpp) -------------------

void BM_AosToSoaScalarStaged(benchmark::State& state) {
  const std::size_t count = 1 << 18;
  const std::size_t fields = static_cast<std::size_t>(state.range(0));
  std::vector<float> aos(count * fields);
  std::vector<float> soa(count * fields);
  for (auto _ : state) {
    simd::aos_to_soa_staged(soa.data(), aos.data(), count, fields);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * aos.size() * sizeof(float) *
                          2);
}
BENCHMARK(BM_AosToSoaScalarStaged)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_AosToSoaRegisterTile(benchmark::State& state) {
  const std::size_t count = 1 << 18;
  const std::size_t fields = static_cast<std::size_t>(state.range(0));
  std::vector<float> aos(count * fields);
  std::vector<float> soa(count * fields);
  for (auto _ : state) {
    simd::aos_to_soa_vectorized(soa.data(), aos.data(), count, fields);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * aos.size() * sizeof(float) *
                          2);
}
BENCHMARK(BM_AosToSoaRegisterTile)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// --- Plan reuse (core/executor.hpp) ------------------------------------------

void BM_TransposeOneShot(benchmark::State& state) {
  const std::uint64_t m = 96;
  const std::uint64_t n = 64;
  std::vector<float> a(m * n);
  for (auto _ : state) {
    transpose(a.data(), m, n);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_TransposeOneShot);

void BM_TransposePlanned(benchmark::State& state) {
  const std::uint64_t m = 96;
  const std::uint64_t n = 64;
  std::vector<float> a(m * n);
  transposer<float> tr(m, n);
  for (auto _ : state) {
    tr(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_TransposePlanned);

// --- In-register SIMD tile transpose (cpu/kernels/tile_inreg_*) --------------
//
// The real-ISA counterpart of BM_WarpRegisterTranspose below: one forward
// plus one inverse tile pass over ~1 MiB of nregs x lanes f32 blocks,
// through the native tier's vpunpck/vpermd ladder and through the portable
// scalar ladder it must match bit-for-bit.

constexpr std::size_t kTileSweepBytes = std::size_t{1} << 20;

void BM_TileInregNative(benchmark::State& state) {
  const auto& ks = kernels::set_for(kernels::native_tier());
  const std::size_t nregs = static_cast<std::size_t>(state.range(0));
  const std::size_t lanes = kernels::tile_lanes<float>(ks);
  if (lanes == 0 || nregs > kernels::tile_max_regs<float>(ks)) {
    state.SkipWithError("no in-register f32 tile on this tier");
    return;
  }
  const std::size_t block = nregs * lanes;
  const std::size_t nblocks = kTileSweepBytes / (block * sizeof(float));
  std::vector<float> a(block * nblocks);
  std::iota(a.begin(), a.end(), 0.0f);
  for (auto _ : state) {
    kernels::tile_pass<float>(ks, a.data(), nregs, nblocks, true);
    kernels::tile_pass<float>(ks, a.data(), nregs, nblocks, false);
    benchmark::ClobberMemory();
  }
  // Two passes, each reading and writing every element once.
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 4);
}
BENCHMARK(BM_TileInregNative)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_TileInregPortable(benchmark::State& state) {
  const auto& ks = kernels::set_for(kernels::native_tier());
  const std::size_t nregs = static_cast<std::size_t>(state.range(0));
  // Same lane width as the native run so the two series are comparable;
  // fall back to 8 lanes when the host has no SIMD tile at all.
  const std::size_t lanes =
      kernels::tile_lanes<float>(ks) != 0 ? kernels::tile_lanes<float>(ks) : 8;
  const std::size_t block = nregs * lanes;
  const std::size_t nblocks = kTileSweepBytes / (block * sizeof(float));
  std::vector<float> a(block * nblocks);
  std::iota(a.begin(), a.end(), 0.0f);
  for (auto _ : state) {
    kernels::tile_pass_portable(a.data(), nregs, lanes, nblocks, true);
    kernels::tile_pass_portable(a.data(), nregs, lanes, nblocks, false);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * a.size() * sizeof(float) * 4);
}
BENCHMARK(BM_TileInregPortable)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

// --- Section 6.2: warp register transpose -----------------------------------

void BM_WarpRegisterTranspose(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const unsigned width = 32;
  simd::warp<std::uint32_t> w(width, m);
  const auto tile = util::iota_matrix<std::uint32_t>(m, width);
  const auto mm = simd::warp_tile_math(m, width);
  for (auto _ : state) {
    w.load_coalesced(tile.data());
    simd::c2r_registers(w, mm);
    benchmark::DoNotOptimize(w.reg(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * m * width);
}
BENCHMARK(BM_WarpRegisterTranspose)->Arg(4)->Arg(7)->Arg(16)->Arg(32);

// --- custom main: console output + BENCH_micro_kernels.json -----------------

// Mirrors every per-iteration timing into the JSON report while keeping the
// standard console table.
class reporting_console final : public benchmark::ConsoleReporter {
 public:
  explicit reporting_console(util::bench_report& rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rep_.add_sample(run.benchmark_name(), "s/iter",
                      run.real_accumulated_time / iters,
                      /*higher_is_better=*/false);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  util::bench_report& rep_;
};

}  // namespace

int main(int argc, char** argv) {
  // Let google-benchmark strip its own --benchmark_* flags first, then hand
  // the remainder to the shared harness parser (--scale/--json/...).
  benchmark::Initialize(&argc, argv);
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "micro_kernels",
      "per-primitive costs behind Sections 4.2-4.7 and 6.2",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  reporting_console reporter(rep);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  rep.attach_telemetry(coll);
  rep.write();
  return 0;
}
