#pragma once
// Per-layer probes for the traced run.  Every probe calls the library's
// own entry points from the benchmark's files: make_plan, the
// transposer<T> arena, and the engine pass functions one by one in the
// engine's own order on the caller's buffer.  No span lives inside the
// library.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/context.hpp"

namespace perfbench {

/// Accumulates what probe_2d measures over a set of 2-D keys.  Pass
/// slots: blocked {0 prerotate, 1 row_shuffle, 2 col_shuffle}, skinny
/// {0 fused_row, 1 rotate, 2 permute}; direction slot 0 = c2r, 1 = r2c.
struct layer_acc {
  double blk_bytes[2][3] = {};
  double blk_sec[2][3] = {};
  std::vector<double> blk_sum_frac;  ///< pass sum / one-call, per key-dir
  double sk_bytes[2][3] = {};
  double sk_sec[2][3] = {};
  std::vector<double> sk_sum_frac;
  double sk_tile_bytes = 0;  ///< skinny bytes whose plan has tile_block != 0
  double sk_all_bytes = 0;
  double tile_bytes = 0;     ///< kernels::tile_pass sweeps
  double tile_sec = 0;

  std::vector<double> arena_build_ms;
  std::vector<double> first_exec_extra_ms;
  std::vector<double> make_plan_us;
  double scratch_bytes = 0;
  int degraded = 0;
  int tile_gate_hits = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool has_blocked() const { return !blk_sum_frac.empty(); }
  [[nodiscard]] bool has_skinny() const { return !sk_sum_frac.empty(); }
  [[nodiscard]] bool has_tile() const { return tile_sec > 0; }
};

/// Probes one rows x cols key and its inverse (cols x rows): plan time,
/// arena build, first and warm execute, the pass-by-pass composition
/// (checked against the same expected buffer as the public call, so the
/// two are bit-identical) and, for tile plans, the standalone tile pass.
/// `reps` warm repetitions per measurement; the buffer must hold
/// rows * cols elements and is left holding the iota pattern.
template <typename T>
void probe_2d(T* a, std::uint64_t rows, std::uint64_t cols, int reps,
              layer_acc& acc);

/// Warm transpose_context call minus a warm direct transposer::execute of
/// the same key, interleaved; median difference in microseconds.
template <typename T>
double front_end_us(inplace::transpose_context& ctx, T* a,
                    std::uint64_t rows, std::uint64_t cols, int reps);

/// Adds every blocked/skinny/kernels/executor/plan per-layer metric to
/// `r`.  Engine-specific metrics come from `own` when it exercised that
/// engine, else from `side`; executor/plan metrics likewise.
void add_engine_metrics(report& r, const layer_acc& own,
                        const layer_acc& side, const roof& rf);

}  // namespace perfbench
