// The repository benchmark binary.
//
//   perfbench --workload <matrix-large|aos-soa|mixed-requests>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a config stamp line, then as the last line the result object
// {"correct", "attempted", "failed", "metrics"}.  Exits 1 when any output
// was wrong or the arithmetic self-checks (run at every start) fail, 2 on
// usage errors, 3 when it refuses to measure (a build that is not Release,
// or an environment override that changes the program).
// See perfbench/METRICS.md for every metric.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "core/plan.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "workloads.hpp"

namespace perfbench {

json::value key_stamp(std::uint64_t rows, std::uint64_t cols,
                      std::size_t elem) {
  json::array out;
  const std::uint64_t ext[2][2] = {{rows, cols}, {cols, rows}};
  for (const auto& e : ext) {
    const inplace::transpose_plan p = inplace::make_plan_for_shape(
        e[0], e[1], inplace::storage_order::row_major, {}, elem);
    out.emplace_back(json::object{
        {"key", std::to_string(e[0]) + "x" + std::to_string(e[1]) + "/" +
                    std::to_string(elem * 8) + "b"},
        {"engine", inplace::engine_name(p.engine)},
        {"dir", inplace::direction_name(p.dir)},
        {"tier", inplace::kernels::tier_name(p.ktier)},
        {"inreg", p.tile_block != 0}});
  }
  return out;
}

std::string config_stamp(const run_args& args, const roof& rf,
                         json::array keys, json::object extra) {
  const inplace::kernels::cache_sizes& c = inplace::kernels::probed_caches();
  json::object config{
      {"workload", args.workload},
      {"seed", args.seed},
      {"seconds", args.seconds},
      {"trace", args.trace},
      {"nproc", static_cast<int>(std::thread::hardware_concurrency())},
      {"l1_bytes", std::uint64_t{c.l1_bytes}},
      {"l2_bytes", std::uint64_t{c.l2_bytes}},
      {"l3_bytes", std::uint64_t{c.l3_bytes}},
      {"kernel_tier", inplace::kernels::tier_name(inplace::kernels::resolve_tier(
                          inplace::kernels::tier::automatic))},
      {"omp_team", omp_team()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"copy_roof_gbps", rf.copy_gbps},
      {"stream_roof_gbps", rf.stream_gbps},
      {"keys", std::move(keys)}};
  for (auto& kv : extra) {
    config.push_back(std::move(kv));
  }
  const json::value stamp = json::object{{"config", std::move(config)}};
  return stamp.dump(0);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<matrix-large|aos-soa|mixed-requests> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

/// Environment variables that make the library a different program.
const char* const forbidden_env[] = {
    "INPLACE_FORCE_KERNEL_TIER", "INPLACE_FAILPOINTS", "INPLACE_NT_THRESHOLD",
    "INPLACE_ROW_KERNEL_MIN_LINE", "INPLACE_TENSOR_CALIBRATION"};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string check = self_check();
  if (!check.empty()) {
    std::fprintf(stderr, "perfbench: self-check failed: %s\n", check.c_str());
    return 1;
  }
  run_args args;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + a).c_str());
    }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
        have[0] = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
        have[1] = true;
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        have[2] = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") {
          return usage("--trace takes 0 or 1");
        }
        args.trace = v == "1";
        have[3] = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]) || args.seconds <= 0) {
    return usage("every argument is required");
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  for (const char* env : forbidden_env) {
    if (std::getenv(env) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to measure with %s set\n",
                   env);
      return 3;
    }
  }

  report r;
  try {
    if (args.workload == "matrix-large") {
      run_large(args, /*aos=*/false, r);
    } else if (args.workload == "aos-soa") {
      run_large(args, /*aos=*/true, r);
    } else if (args.workload == "mixed-requests") {
      run_mixed(args, r);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }
  print_result(r);
  return r.correct ? 0 : 1;
}
