#pragma once
// The three workloads.  Each returns its metrics in `r`; with trace set
// it reports the per-layer metrics instead of the end-to-end ones.

#include <cstdint>
#include <string>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

struct run_args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// matrix-large (aos = false) and aos-soa (aos = true).
void run_large(const run_args& args, bool aos, report& r);

void run_mixed(const run_args& args, report& r);

/// The layers only mixed-requests exercises at its own scale (sched,
/// tensor_plan, tensor_nd, perm_plan, perm_engine, context.front_end_us),
/// measured on the mixed-requests catalogue for `seed` for `seconds`, plus
/// probe_2d over the catalogue's 2-D keys into `side`.  The large
/// workloads' traced runs call this for the layers they do not reach.
void catalogue_layers(std::uint64_t seed, double seconds, report& r,
                      layer_acc& side);

/// Times the first (probing) call of the tensor cost-model calibration;
/// must run before any permute_nd in the process.
[[nodiscard]] double calibration_probe_ms();

/// Plan facts of the key rows x cols and its inverse key: engine,
/// direction, resolved tier and whether the in-register tile engaged.
[[nodiscard]] json::value key_stamp(std::uint64_t rows, std::uint64_t cols,
                                    std::size_t elem);

/// Host facts and build stamp as one JSON line, plus the workload's own
/// facts in `extra`.
[[nodiscard]] std::string config_stamp(const run_args& args, const roof& rf,
                                       json::array keys,
                                       json::object extra = {});

}  // namespace perfbench
