// Ablation for the general-permutation classifier (core/perm_plan.cpp):
// what the plan-time structure detection buys over feeding the same
// index vector to the generic memoized cycle-leader executor.
//
// Two probes, one gate:
//   bit-reversal  pi = bitrev_w on n = 2^w doubles.  The classified path
//                 runs the COBRA cache-blocked kernel (2^q x 2^q tile
//                 pairs, every touch a contiguous sub-row); the foil runs
//                 the identical permutation through the generic executor
//                 by flipping the plan's kind after classification.  The
//                 gate requires >= 1.5x at full scale: bit-reversal is
//                 the textbook cache-hostile access pattern (stride
//                 doubling per bit), so a tiled kernel that does NOT
//                 clearly beat a cycle walk signals a regression in the
//                 tile pairing, not noise.  Gated only when the working
//                 set exceeds the probed L3 (full scale: 512 MiB); the
//                 ctest smoke run keeps the bit-exactness sweep.
//   rotation      pi[i] = (i + k) mod n with gcd-juggling eligible
//                 (g = 4096 groups of contiguous sub-rows) vs the same
//                 generic foil.  Informational — rotations are already
//                 memcpy-adjacent, so the contrast is reported in the
//                 JSON but not gated.
//
// Both probes assert bit-exactness between the classified and forced-
// generic buffers first (the executors are pure permutations; any
// divergence is a correctness bug) and that the classifier actually
// produced the expected verdict (a silent fall-through to generic would
// make the timing comparison vacuously 1.0x).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/perm.hpp"
#include "core/perm_engine.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/bench_harness.hpp"
#include "util/matrix.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;

std::vector<std::uint32_t> bitrev_perm(std::uint64_t w) {
  const std::uint64_t n = std::uint64_t{1} << w;
  std::vector<std::uint32_t> pi(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    pi[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(detail::perm_bitrev(i, w));
  }
  return pi;
}

std::vector<std::uint32_t> rotation_perm(std::uint64_t n, std::uint64_t k) {
  std::vector<std::uint32_t> pi(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    pi[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>((i + k) % n);
  }
  return pi;
}

/// Largest power-of-two length <= 2^full_w * scale, floored at 2^14 so
/// the COBRA tiling and the juggling eligibility stay engaged even in
/// the ctest smoke run.
std::uint64_t scaled_log2(std::uint64_t full_w, double scale) {
  std::uint64_t w = full_w;
  if (scale < 1.0) {
    double target = static_cast<double>(std::uint64_t{1} << full_w) * scale;
    while (w > 14 &&
           static_cast<double>(std::uint64_t{1} << (w - 1)) >= target) {
      --w;
    }
  }
  return w;
}

/// One probe: interleaved best-of-reps of the classified executor vs the
/// same permutation forced down the generic cycle-leader executor.  Both
/// sides run through the same direct permuter driver: plan-time
/// classification is common-mode cost in the public API (every call pays
/// it regardless of the verdict), so leaving it inside only one series
/// would skew the executor contrast this ablation isolates.
struct probe_ms {
  double fast_ms = 0.0;
  double generic_ms = 0.0;
};
probe_ms run_probe(std::vector<double>& buf,
                   const std::vector<std::uint32_t>& pi,
                   permuter<double>& fast, permuter<double>& generic_foil,
                   int reps) {
  const std::span<const std::uint32_t> pis(pi);
  std::vector<double> fast_ms;
  std::vector<double> generic_ms;
  // Interleave (F G F G ...) so slow machine-level drift cancels out of
  // the ratio; take each series' minimum (interference is additive).
  for (int r = 0; r < reps; ++r) {
    util::fill_iota(std::span<double>(buf));
    util::timer fclk;
    fast.execute(buf.data(), pis, /*from_cache=*/true);
    fast_ms.push_back(fclk.seconds() * 1e3);
    util::fill_iota(std::span<double>(buf));
    util::timer gclk;
    generic_foil.execute(buf.data(), pis, /*from_cache=*/true);
    generic_ms.push_back(gclk.seconds() * 1e3);
  }
  return {*std::min_element(fast_ms.begin(), fast_ms.end()),
          *std::min_element(generic_ms.begin(), generic_ms.end())};
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::parse_bench_args(argc, argv);
  util::bench_report rep(
      "ablation_permute",
      "plan-time permutation classifier (COBRA bit-reversal, gcd-juggling "
      "rotation) vs the generic cycle-leader executor on the same pi",
      cfg);
  telemetry::collector coll;
  telemetry::scoped_sink sink_guard(&coll);
  util::print_banner(
      "Ablation: general-permutation classifier",
      "classified bit-reversal >= 1.5x forced-generic at full scale, "
      "bit-identical results");

  const std::size_t l3 = kernels::probed_caches().l3_bytes;
  std::printf("probed L3: %.1f MiB\n\n",
              static_cast<double>(l3) / (1024.0 * 1024.0));
  rep.note("l3_bytes", static_cast<double>(l3));

  const int reps = static_cast<int>(cfg.samples(5, 3));
  const options opts;

  struct probe {
    const char* name;
    perm_kind want;
    std::vector<std::uint32_t> pi;
    bool gate;
  };
  // Full scale: n = 2^26 doubles = 512 MiB, past the probed L3 even on
  // hosts whose "L3" is a large virtualized slice.  k = 4096 keeps the
  // rotation on the juggling rung at every scale (gcd(2^w, 4096) = 4096
  // for w >= 14; 32 KiB groups).
  const std::uint64_t w = scaled_log2(26, cfg.scale);
  const std::uint64_t n = std::uint64_t{1} << w;
  probe probes[2];
  probes[0] = {"bit_reversal", perm_kind::bit_reversal, bitrev_perm(w), true};
  probes[1] = {"rotation", perm_kind::rotation, rotation_perm(n, 4096),
               false};

  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  const bool gate_applicable = cfg.scale >= 1.0 && bytes >= l3;
  bool bit_exact = true;
  bool verdicts_ok = true;
  bool gate_met = true;

  std::printf("  n = 2^%llu (%.1f MiB of f64)\n",
              static_cast<unsigned long long>(w),
              static_cast<double>(bytes) / (1024.0 * 1024.0));
  std::printf("  %-14s %12s %12s %9s %6s\n", "probe", "fast ms",
              "generic ms", "speedup", "gated");
  for (probe& p : probes) {
    const std::span<const std::uint32_t> pis(p.pi);
    perm_plan plan = make_perm_plan(pis, /*inverse=*/false, opts,
                                    sizeof(double));
    if (plan.kind != p.want) {
      std::fprintf(stderr,
                   "FAIL %s: classifier produced \"%s\" — verdict "
                   "regression, timing contrast is vacuous\n",
                   p.name, perm_kind_name(plan.kind));
      verdicts_ok = false;
      continue;
    }
    // The foil: identical pi, identical plan, kind flipped to generic so
    // the cycle-leader executor runs it (the public API always
    // classifies, so this is the only way to force the comparison).
    perm_plan generic_plan = plan;
    generic_plan.kind = perm_kind::generic;

    std::vector<double> buf(static_cast<std::size_t>(n));
    permuter<double> fast(plan, opts, buf.data());
    permuter<double> generic_foil(generic_plan, opts, buf.data());

    // Bit-exactness first (also warms the buffers and both executors'
    // memo state so the timed loop measures steady state).  The fast
    // reference goes through the full public API, cross-validating the
    // context pipeline against the direct driver the timing uses.
    {
      util::fill_iota(std::span<double>(buf));
      inplace::permute(std::span<double>(buf), pis);
      std::vector<double> got_fast = buf;
      util::fill_iota(std::span<double>(buf));
      fast.execute(buf.data(), pis, /*from_cache=*/false);
      if (std::memcmp(got_fast.data(), buf.data(), bytes) != 0) {
        std::fprintf(stderr,
                     "FAIL %s: public-API result differs from the direct "
                     "classified executor\n",
                     p.name);
        bit_exact = false;
      }
      util::fill_iota(std::span<double>(buf));
      generic_foil.execute(buf.data(), pis, /*from_cache=*/false);
      if (std::memcmp(got_fast.data(), buf.data(), bytes) != 0) {
        std::fprintf(stderr,
                     "FAIL %s: classified result differs from the "
                     "forced-generic executor\n",
                     p.name);
        bit_exact = false;
      }
    }

    const probe_ms ms = run_probe(buf, p.pi, fast, generic_foil, reps);
    const double speedup = ms.generic_ms / ms.fast_ms;
    const bool gated = gate_applicable && p.gate;
    std::printf("  %-14s %12.1f %12.1f %8.2fx %6s\n", p.name, ms.fast_ms,
                ms.generic_ms, speedup, gated ? "yes" : "no");
    rep.add_sample(std::string(p.name) + "_fast_ms", "ms", ms.fast_ms,
                   /*higher_is_better=*/false);
    rep.add_sample(std::string(p.name) + "_generic_ms", "ms", ms.generic_ms,
                   /*higher_is_better=*/false);
    rep.add_sample(std::string(p.name) + "_speedup", "x", speedup);
    if (gated && speedup < 1.5) {
      gate_met = false;
    }
  }

  rep.note("bit_exact", bit_exact);
  rep.note("verdicts_ok", verdicts_ok);
  rep.note("gate_applicable", gate_applicable);
  rep.note("gate_met", gate_applicable ? gate_met : true);
  rep.attach_telemetry(coll);
  rep.write();

  if (!verdicts_ok) {
    std::fprintf(stderr,
                 "ablation_permute: classifier verdict regression\n");
    return 1;
  }
  if (!bit_exact) {
    std::fprintf(stderr,
                 "ablation_permute: executor divergence — permutation "
                 "correctness regression\n");
    return 1;
  }
  if (!gate_applicable) {
    std::printf("\nspeedup gate skipped (%s)\n",
                cfg.scale < 1.0
                    ? "reduced --scale; timing not trusted"
                    : "working set below the probed L3");
    return 0;
  }
  if (!gate_met) {
    std::fprintf(stderr,
                 "ablation_permute: classified bit-reversal below 1.5x "
                 "over forced-generic — fast-path perf regression\n");
    return 1;
  }
  std::printf("\nspeedup gate met (bit-reversal >= 1.5x forced-generic)\n");
  return 0;
}
