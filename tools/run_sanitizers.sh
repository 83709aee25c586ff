#!/usr/bin/env bash
# Sanitizer build matrix: configures, builds and runs the ctest suite under
# ASan, UBSan and TSan (tools/permcheck's quick sweep rides along via its
# ctest registration).  Each sanitizer gets its own build tree so the
# matrix is incremental across runs.
#
#   tools/run_sanitizers.sh                # asan + ubsan (full), tsan (mt)
#   tools/run_sanitizers.sh --only asan    # one sanitizer
#   tools/run_sanitizers.sh --only tsa     # clang Thread Safety Analysis
#                                          # compile-time proof (build only)
#   tools/run_sanitizers.sh --jobs 8       # parallel build/test width
#
# TSan note: libgomp is not TSan-instrumented, so the thread-sanitized run
# is restricted to the multi-threaded integration/engine tests and runs
# with tools/tsan.supp suppressing the runtime's internals.  A clean signal
# on the OpenMP engines still requires those tests to pass.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
only=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --only) only="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "usage: $0 [--only asan|ubsan|tsan|tsa] [--jobs N]" >&2; exit 2 ;;
  esac
done

run_matrix_entry() {
  local name="$1" sanitize="$2" test_filter="$3"
  local build_dir="$repo_root/build-$name"

  echo "=== [$name] configure + build (INPLACE_SANITIZE=$sanitize)"
  cmake -B "$build_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DINPLACE_SANITIZE="$sanitize" \
        -DINPLACE_BUILD_BENCH=OFF \
        -DINPLACE_BUILD_EXAMPLES=OFF > "$build_dir.configure.log" 2>&1 \
    || { cat "$build_dir.configure.log" >&2; return 1; }
  cmake --build "$build_dir" -j "$jobs" > "$build_dir.build.log" 2>&1 \
    || { tail -50 "$build_dir.build.log" >&2; return 1; }

  echo "=== [$name] ctest ${test_filter:+(filter: $test_filter)}"
  local -a filter_args=()
  [[ -n "$test_filter" ]] && filter_args=(-R "$test_filter")
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" "${filter_args[@]}") \
    || return 1

  # Second pass with kernel dispatch pinned to the scalar tier: the engine
  # suites must be clean no matter which tier the dispatcher picks.  The
  # Kernel* suites stay in the default pass only — they assert on tier
  # forcing themselves and would fight the override.
  echo "=== [$name] ctest engines, INPLACE_FORCE_KERNEL_TIER=scalar"
  (cd "$build_dir" && INPLACE_FORCE_KERNEL_TIER=scalar \
     ctest --output-on-failure -j "$jobs" \
           -R 'Transpose|Skinny|Integration|Executor|Primitives|Permute|Tensor|Walker')

  # Mirror pass with the in-register tile tier forced: every eligible
  # skinny plan routes through the vpunpck/vpermd ladders and their fused
  # scatter/gather hooks, so the sanitizers sweep the tile runner's
  # lane_chunk reinterpretation, rollback path and NT-store fencing too.
  echo "=== [$name] ctest engines, INPLACE_FORCE_KERNEL_TIER=inreg"
  (cd "$build_dir" && INPLACE_FORCE_KERNEL_TIER=inreg \
     ctest --output-on-failure -j "$jobs" \
           -R 'Transpose|Skinny|Integration|Executor|Primitives|Permute|Tensor|Walker')

  # Third pass — failure semantics under injection: the whole process runs
  # with the OOM ladder env-forced off its first rung while the suite's own
  # stage faults fire on top.  Under the sanitizers this proves a failing
  # (rolled-back or degraded) execution leaks nothing and scribbles
  # nowhere.  Only the rollback/ladder suites run here: the Failpoint
  # registry tests assert a pristine arming state and would fight the env.
  echo "=== [$name] ctest failure semantics, INPLACE_FAILPOINTS=exec.alloc.full:oom"
  (cd "$build_dir" && INPLACE_FAILPOINTS="exec.alloc.full:oom" \
     ctest --output-on-failure -j "$jobs" -R 'Rollback|OomLadder|TensorFailure|PermFailure|Walker')
}

# Compile-time companion to the TSan runtime entry: a clang build with
# -Wthread-safety promoted to errors, proving the locking protocol encoded
# by the capability annotations in src/util/annotated_mutex.hpp.  This is
# a build-only pass (the proof IS the compile); the binaries are discarded.
# Not part of the default matrix — clang is optional in this project's
# toolchain, so the entry skips loudly when it is absent.
run_tsa_entry() {
  local build_dir="$repo_root/build-tsa"

  if ! command -v clang++ >/dev/null 2>&1; then
    echo "!!! [tsa] clang++ not found — SKIPPING the Thread Safety" >&2
    echo "!!! Analysis proof.  The INPLACE_GUARDED_BY/INPLACE_REQUIRES" >&2
    echo "!!! annotations compile to no-ops under GCC; install clang to" >&2
    echo "!!! verify lock discipline at compile time." >&2
    return 0
  fi

  echo "=== [tsa] configure + build (clang, -Wthread-safety as errors)"
  cmake -B "$build_dir" -S "$repo_root" \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DINPLACE_THREAD_SAFETY=ON \
        -DINPLACE_BUILD_BENCH=OFF \
        -DINPLACE_BUILD_EXAMPLES=OFF > "$build_dir.configure.log" 2>&1 \
    || { cat "$build_dir.configure.log" >&2; return 1; }
  cmake --build "$build_dir" -j "$jobs" > "$build_dir.build.log" 2>&1 \
    || { tail -50 "$build_dir.build.log" >&2; return 1; }
  echo "=== [tsa] lock-discipline proof clean"
}

status=0
for entry in asan ubsan tsan tsa; do
  [[ -n "$only" && "$only" != "$entry" ]] && continue
  # TSA is opt-in (--only tsa): it proves at compile time what the TSan
  # runtime entry probes dynamically, and requires clang.
  [[ -z "$only" && "$entry" == "tsa" ]] && continue
  case "$entry" in
    asan)
      ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
        run_matrix_entry asan address "" || status=1
      ;;
    ubsan)
      UBSAN_OPTIONS="print_stacktrace=1" \
        run_matrix_entry ubsan undefined "" || status=1
      ;;
    tsan)
      TSAN_OPTIONS="suppressions=$repo_root/tools/tsan.supp:history_size=7" \
        run_matrix_entry tsan thread \
        'Integration|Transpose|Executor|Skinny|Threading|Context|PlanCache|Kernel|permcheck|Async|ArenaConsistency|Sched|soak_smoke|Permute|Tensor' \
        || status=1
      ;;
    tsa)
      run_tsa_entry || status=1
      ;;
  esac
done

if [[ $status -eq 0 ]]; then
  echo "=== sanitizer matrix: all clean"
else
  echo "=== sanitizer matrix: FAILURES (see above)" >&2
fi
exit $status
