#pragma once
// Shared scaffolding for the per-figure/per-table benchmark binaries:
// sample-count scaling, CSV output location, a standard banner so the
// reproduced rows are easy to find in `bench_output.txt`, and the
// machine-readable BENCH_<artifact>.json report consumed by
// tools/bench_gate.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "util/json.hpp"

namespace inplace::util {

/// Version tag stamped into every report; bump on breaking layout changes.
inline constexpr const char* bench_schema = "inplace.bench/1";

/// Parsed command line / environment for a bench binary.
///
/// Recognised flags:
///   --csv <path>     also dump the raw series as CSV
///   --json <path>    write the BENCH_*.json report here instead of the
///                    default BENCH_<artifact>.json in the working dir
///   --no-json        suppress the JSON report
///   --scale <f>      multiply workload sample counts by f (default from
///                    the INPLACE_BENCH_SCALE environment variable, then
///                    1.0)
///   --threads <n>    OpenMP thread count (default: all)
struct bench_config {
  double scale = 1.0;
  int threads = 0;  // 0 = library default
  std::optional<std::string> csv_path;
  std::optional<std::string> json_path;
  bool emit_json = true;

  /// Scaled sample count, never less than `minimum`; saturates instead of
  /// wrapping when scale * base exceeds size_t.
  [[nodiscard]] std::size_t samples(std::size_t base,
                                    std::size_t minimum = 4) const;
};

[[nodiscard]] bench_config parse_bench_args(int argc, char** argv);

/// Prints the standard header tying a binary back to the paper artifact.
void print_banner(const std::string& artifact, const std::string& paper_claim);

/// One measured (or modelled) sample series of a report.
struct bench_series {
  std::string name;
  std::string unit;
  bool higher_is_better = true;
  std::vector<double> samples;
};

/// Accumulates everything one bench binary measured and serializes it as
/// a schema-versioned JSON document (`bench_schema`).  The `artifact`
/// string names the output file: BENCH_<artifact>.json.
class bench_report {
 public:
  bench_report(std::string artifact, std::string paper_claim,
               const bench_config& cfg);

  /// Appends a whole series (replacing any prior series with this name).
  void add_series(const std::string& name, const std::string& unit,
                  std::span<const double> samples,
                  bool higher_is_better = true);

  /// Appends one sample to a (created-on-first-use) series.
  void add_sample(const std::string& name, const std::string& unit,
                  double sample, bool higher_is_better = true);

  /// Records a free-form metadata entry under the report's "meta" object.
  void note(const std::string& key, json::value v);

  /// Snapshots per-stage totals, raw spans and plan decisions out of a
  /// telemetry collector into the report.
  void attach_telemetry(const telemetry::collector& coll);

  [[nodiscard]] const std::string& artifact() const { return artifact_; }
  [[nodiscard]] std::string default_path() const {
    return "BENCH_" + artifact_ + ".json";
  }

  /// The full report document (schema, config, series + summary stats,
  /// telemetry, metadata).
  [[nodiscard]] json::value to_json() const;

  /// Writes the report per the config captured at construction
  /// (`--no-json` suppresses, `--json` overrides the path).  Returns the
  /// path written, or nullopt when suppressed.
  std::optional<std::string> write() const;  // NOLINT(modernize-use-nodiscard)

 private:
  std::string artifact_;
  std::string paper_claim_;
  bench_config cfg_;
  std::vector<bench_series> series_;
  json::value meta_ = json::object{};
  std::optional<json::value> telemetry_;
};

}  // namespace inplace::util
