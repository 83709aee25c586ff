#!/usr/bin/env bash
# The single local gate: tier-1 build + ctest, then the ASan and UBSan
# suites, then the permcheck exhaustive sweep.  Run this before declaring
# any change good.
#
#   tools/verify.sh              # full gate
#   tools/verify.sh --fast       # tier-1 + permcheck only (no sanitizers)
#   tools/verify.sh --max 512    # deeper permcheck sweep (default 256)
#   tools/verify.sh --bench      # also run the perf gate against the
#                                # committed bench/baselines/ reports
#   tools/verify.sh --static     # static-verification gate only:
#                                # inplace-lint selftest + tree scan, the
#                                # clang TSA proof build, and clang-tidy.
#                                # Stages whose toolchain is missing
#                                # (clang, clang-tidy) skip LOUDLY and do
#                                # not fail the gate, so GCC-only
#                                # environments still pass.
#   tools/verify.sh --soak       # also replay the full 1M-request
#                                # transpose-as-a-service soak (clean pass
#                                # + a fault pass with env-armed ctx.*
#                                # failpoints), gating on p99 latency,
#                                # zero deadlocks, counter conservation
#                                # and bit-exactness (tools/soak).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
permcheck_max=256
fast=0
bench=0
static_only=0
soak=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) fast=1; shift ;;
    --bench) bench=1; shift ;;
    --static) static_only=1; shift ;;
    --soak) soak=1; shift ;;
    --max) permcheck_max="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "usage: $0 [--fast] [--bench] [--static] [--soak] [--max N] [--jobs N]" >&2
       exit 2 ;;
  esac
done

run_static_gate() {
  echo "=== static: inplace-lint selftest (seeded fixture corpus)"
  python3 "$repo_root/tools/lint/inplace-lint" --selftest --root "$repo_root"

  echo "=== static: inplace-lint over the shipped tree"
  python3 "$repo_root/tools/lint/inplace-lint" --root "$repo_root" \
      --compile-commands "$repo_root/build/compile_commands.json"

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== static: clang Thread Safety Analysis proof build"
    "$repo_root/tools/run_sanitizers.sh" --only tsa --jobs "$jobs"
  else
    echo "!!! static: clang++ not found — SKIPPING the Thread Safety" >&2
    echo "!!! Analysis proof build.  The capability annotations in" >&2
    echo "!!! src/util/annotated_mutex.hpp compile to no-ops under this" >&2
    echo "!!! toolchain; install clang to verify the locking protocol." >&2
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== static: clang-tidy over compiled sources"
    cmake -B "$repo_root/build-tidy" -S "$repo_root" \
          -DINPLACE_CLANG_TIDY=ON -DINPLACE_BUILD_BENCH=OFF \
          -DINPLACE_BUILD_EXAMPLES=OFF
    cmake --build "$repo_root/build-tidy" -j "$jobs"
  else
    echo "!!! static: clang-tidy not found — SKIPPING the tidy pass" >&2
    echo "!!! (profile: .clang-tidy; enable with -DINPLACE_CLANG_TIDY=ON)" >&2
  fi

  echo "=== static gate: done"
}

if [[ $static_only -eq 1 ]]; then
  run_static_gate
  exit 0
fi

echo "=== tier-1: cmake + build + ctest"
cmake -B "$repo_root/build" -S "$repo_root"
cmake --build "$repo_root/build" -j "$jobs"
(cd "$repo_root/build" && ctest --output-on-failure -j "$jobs")

echo "=== failure semantics: rollback/OOM-ladder suites with env-armed faults"
# The whole ladder runs one rung down (every arena degrades) while the
# suite's own stage faults fire on top; the rollback and restore
# guarantees must hold under that combination too.
(cd "$repo_root/build" && INPLACE_FAILPOINTS="exec.alloc.full:oom" \
   ctest --output-on-failure -j "$jobs" -R 'Rollback|OomLadder|TensorFailure|PermFailure')

if [[ $fast -eq 0 ]]; then
  "$repo_root/tools/run_sanitizers.sh" --only asan --jobs "$jobs"
  "$repo_root/tools/run_sanitizers.sh" --only ubsan --jobs "$jobs"
fi

echo "=== permcheck --max $permcheck_max"
"$repo_root/build/tools/permcheck" --max "$permcheck_max"

if [[ $bench -eq 1 ]]; then
  echo "=== bench gate: comparator selftest"
  "$repo_root/build/tools/bench_gate" --selftest
  echo "=== bench gate: quick-scale run vs committed baseline"
  bench_tmp="$(mktemp -d)"
  trap 'rm -rf "$bench_tmp"' EXIT
  "$repo_root/build/bench/gpu_model_predictions" --scale 0.05 \
      --json "$bench_tmp/BENCH_gpu_model_predictions.json" >/dev/null
  "$repo_root/build/tools/bench_gate" \
      "$repo_root/bench/baselines/BENCH_gpu_model_predictions.json" \
      "$bench_tmp/BENCH_gpu_model_predictions.json"
  echo "=== bench gate: micro-kernel primitives vs committed baseline"
  # Short repetitions give every series a real MAD (one-sample series
  # would gate on a zero noise band); the wide threshold reflects how
  # much nanosecond-scale primitive timings swing across host load —
  # this stanza catches order-of-magnitude cliffs (a ladder falling back
  # to scalar), not percent-level drift.
  "$repo_root/build/bench/micro_kernels" \
      --benchmark_min_time=0.02 --benchmark_repetitions=5 \
      --json "$bench_tmp/BENCH_micro_kernels.json" >/dev/null
  "$repo_root/build/tools/bench_gate" \
      "$repo_root/bench/baselines/BENCH_micro_kernels.json" \
      "$bench_tmp/BENCH_micro_kernels.json" --threshold 0.5 --mad-k 8
  echo "=== bench gate: repository benchmark, traced smoke run per workload"
  # The traced run composes the engine passes one by one
  # (perfbench/layers.cpp) and checks the buffer bit-identical to the
  # public call after every composition, so it is the end-to-end guard on
  # the pass functions the executor's pass loop sequences.  The shortest
  # --seconds perfbench accepts keeps each run to its minimum sample count.
  for workload in matrix-large aos-soa mixed-requests; do
    (cd "$repo_root" && python3 perfbench/run.py --workload "$workload" \
        --seed 1 --seconds 0.001 --trace 1 >/dev/null)
  done
  echo "=== bench gate: plan-cache ablation steady-state check"
  # Self-gating: exits nonzero if the warm loop performed any plan misses
  # or arena allocations (a plan-cache regression), regardless of timing.
  "$repo_root/build/bench/ablation_plan_cache" --scale 0.05 --no-json
  echo "=== bench gate: kernel-dispatch ablation (tier bit-exactness)"
  # Quick scale keeps every shape below L3, so the timing gate self-skips;
  # the forced-scalar vs native-tier bit-exactness check runs in earnest.
  # Full-scale speedup gate: build/bench/ablation_kernels (no --scale).
  "$repo_root/build/bench/ablation_kernels" --scale 0.02 --no-json
  echo "=== bench gate: tensor decomposition search vs committed baseline"
  # Full scale: the searched-vs-worst-order timing gate arms only at
  # (near-)full scale, and quick scales would not be comparable to the
  # committed full-scale baseline.  Bit-exactness, model ordering and the
  # warm permute_nd steady-state check are deterministic and always run.
  "$repo_root/build/bench/ablation_tensor_nd" \
      --json "$bench_tmp/BENCH_ablation_tensor_nd.json"
  "$repo_root/build/tools/bench_gate" \
      "$repo_root/bench/baselines/BENCH_ablation_tensor_nd.json" \
      "$bench_tmp/BENCH_ablation_tensor_nd.json"
  echo "=== bench gate: permutation classifier vs committed baseline"
  # Full scale: the classified-vs-forced-generic speedup gate (COBRA
  # bit-reversal >= 1.5x on a 512 MiB working set) arms only at full
  # scale; the classifier-verdict and bit-exactness checks (public API
  # vs direct executor vs generic foil) are deterministic and always run.
  "$repo_root/build/bench/ablation_permute" \
      --json "$bench_tmp/BENCH_ablation_permute.json"
  "$repo_root/build/tools/bench_gate" \
      "$repo_root/bench/baselines/BENCH_ablation_permute.json" \
      "$bench_tmp/BENCH_ablation_permute.json"
fi

if [[ $soak -eq 1 ]]; then
  echo "=== soak: 1M-request transpose-as-a-service replay (clean pass)"
  "$repo_root/build/tools/soak" --requests 1000000
  echo "=== soak: 100k-request fault pass (env-armed ctx.* failpoints)"
  # Sparse faults at every scheduler/cache failpoint: each injected fault
  # must settle exactly one future, leave its buffer untouched and keep
  # every conservation gate green.  --expect-failpoints asserts the arms
  # actually fired, so a renamed failpoint cannot produce a vacuous pass.
  INPLACE_FAILPOINTS="ctx.worker.job:fault:997:50,ctx.sched.pop:fault:1499:20,ctx.queue.push:fault:1999:20,ctx.cache.evict:fault:499:20" \
      "$repo_root/build/tools/soak" --requests 100000 --expect-failpoints
fi

echo "=== verify.sh: all gates green"
