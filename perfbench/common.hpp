#pragma once
// Shared pieces of the repository benchmark: clocks, the Eq. 37 byte
// accounting, the percentile rule, index-carrying patterns and their
// checkers, the copy-bandwidth roof, and the JSON report lines.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

namespace json = inplace::util::json;

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double secs(bench_clock::time_point a,
                                 bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Times one call of `f` in seconds.
template <typename F>
[[nodiscard]] double time_call(F&& f) {
  const auto t0 = bench_clock::now();
  f();
  return secs(t0, bench_clock::now());
}

/// What the traced run records per timed operation: a span count and the
/// summed span time, read back for trace.overhead_frac.
struct span_counter {
  std::uint64_t spans = 0;
  double seconds = 0;

  void add(bench_clock::time_point a, bench_clock::time_point b) {
    ++spans;
    seconds += secs(a, b);
  }
};

// --- arithmetic pinned by the self-checks ------------------------------

/// Eq. 37 traffic of one operation: every element is read once and
/// written once, so 2 * elements * elem_size bytes for every kind (a
/// transpose and an AoS<->SoA conversion of m x n, a permute_nd of
/// prod(dims) elements, a permute of n elements).
[[nodiscard]] std::uint64_t eq37_bytes(std::uint64_t elements,
                                       std::size_t elem_size);

[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank quantile q of `v`, reported only when at least ten
/// samples lie beyond it (strictly later in sorted order); empty
/// otherwise.
[[nodiscard]] std::optional<double> tail_quantile(std::vector<double> v,
                                                  double q);

/// Runs the arithmetic self-checks; returns an empty string on success,
/// else what failed.
[[nodiscard]] std::string self_check();

// --- report lines ------------------------------------------------------

struct report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Counts one checked operation.
  void count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(const report& r);

// --- host facts --------------------------------------------------------

[[nodiscard]] double peak_rss_mib();
[[nodiscard]] int omp_team();

/// Copy-bandwidth roof over a buffer: the resolved tier's temporal copy
/// and non-temporal stream copy of the first half into the second half,
/// split over the default OpenMP team, best of three sweeps each.  Eq. 37
/// counts 2 * half bytes per sweep.
struct roof {
  double copy_gbps = 0;
  double stream_gbps = 0;
};
[[nodiscard]] roof measure_roof(void* buf, std::size_t bytes);

// --- buffers and patterns ----------------------------------------------

/// 64-byte aligned, first-touched (parallel zero fill) heap buffer.
class big_buffer {
 public:
  explicit big_buffer(std::size_t bytes);
  [[nodiscard]] void* data() const { return p_.get(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  struct deleter {
    void operator()(void* p) const;
  };
  std::unique_ptr<void, deleter> p_;
  std::size_t bytes_ = 0;
};

/// a[i] = i.
template <typename T>
void fill_iota(T* a, std::uint64_t n);

/// Mismatches against a[i] == i.
template <typename T>
std::uint64_t check_iota(const T* a, std::uint64_t n);

/// Mismatches against the transpose of a rows x cols iota matrix:
/// a[j * rows + i] == i * cols + j.
template <typename T>
std::uint64_t check_transposed(const T* a, std::uint64_t rows,
                               std::uint64_t cols);

}  // namespace perfbench
