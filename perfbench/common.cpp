#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "cpu/kernels/kernel_set.hpp"

#if defined(INPLACE_HAVE_OPENMP)
#include <omp.h>
#endif

namespace perfbench {

std::uint64_t eq37_bytes(std::uint64_t elements, std::size_t elem_size) {
  return 2 * elements * static_cast<std::uint64_t>(elem_size);
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail_quantile(std::vector<double> v, double q) {
  if (v.empty() || q <= 0.0 || q > 1.0) {
    return std::nullopt;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.  The epsilon keeps q*n = 990.0000001 from rounding up.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < 10) {
    return std::nullopt;
  }
  return v[rank - 1];
}

std::string self_check() {
  // Eq. 37 accounting, one case per op kind by its element count.
  if (eq37_bytes(3 * 5, 8) != 240) {
    return "eq37: 3x5 f64 transpose must count 240 bytes";
  }
  if (eq37_bytes(1000 * 7, 4) != 56000) {
    return "eq37: 1000x7 f32 AoS<->SoA must count 56000 bytes";
  }
  if (eq37_bytes(2 * 3 * 4 * 5, 4) != 960) {
    return "eq37: 2x3x4x5 f32 permute_nd must count 960 bytes";
  }
  if (eq37_bytes(4096, 8) != 65536) {
    return "eq37: 4096-element u64 permute must count 65536 bytes";
  }
  // Percentile rule: a tail is reported only with >= 10 samples beyond.
  std::vector<double> s(1000);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<double>(s.size() - i);  // 1000 .. 1, unsorted order
  }
  const auto p99 = tail_quantile(s, 0.99);
  if (!p99 || *p99 != 990.0) {
    return "percentile: p99 of 1..1000 must be 990 with 10 samples beyond";
  }
  s.pop_back();  // 999 samples: only 9 lie beyond the p99 rank
  if (tail_quantile(s, 0.99)) {
    return "percentile: p99 of 999 samples must be withheld";
  }
  const auto p50 = tail_quantile({4, 1, 3, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                  14, 15, 16, 17, 18, 19, 20},
                                 0.5);
  if (!p50 || *p50 != 10.0) {
    return "percentile: p50 of 1..20 must be 10";
  }
  if (median({3, 1, 2}) != 2.0 || median({4, 1, 3, 2}) != 2.5) {
    return "median of {1,2,3} must be 2 and of {1,2,3,4} 2.5";
  }
  return {};
}

// --- report lines ------------------------------------------------------

void print_result(const report& r) {
  json::object metrics;
  for (const auto& [name, vu] : r.metrics) {
    metrics.emplace_back(
        name, json::object{{"value", vu.first}, {"unit", vu.second}});
  }
  const json::value out = json::object{{"correct", r.correct},
                                       {"attempted", r.attempted},
                                       {"failed", r.failed},
                                       {"metrics", std::move(metrics)}};
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
}

// --- host facts --------------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int omp_team() {
#if defined(INPLACE_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

roof measure_roof(void* buf, std::size_t bytes) {
  const std::size_t half = bytes / 2 / 64 * 64;
  auto* src = static_cast<unsigned char*>(buf);
  unsigned char* dst = src + half;
  const inplace::kernels::kernel_set& ks =
      inplace::kernels::set_for(inplace::kernels::resolve_tier(
          inplace::kernels::tier::automatic));
  const std::size_t chunk = std::size_t{4} << 20;
  const auto chunks = static_cast<std::int64_t>((half + chunk - 1) / chunk);
  const auto sweep = [&](bool stream) {
    return time_call([&] {
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
      for (std::int64_t c = 0; c < chunks; ++c) {
        const std::size_t off = static_cast<std::size_t>(c) * chunk;
        const std::size_t len = std::min(chunk, half - off);
        (stream ? ks.stream : ks.copy)(dst + off, src + off, len);
      }
    });
  };
  roof r;
  const double traffic = 2.0 * static_cast<double>(half) / 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    r.copy_gbps = std::max(r.copy_gbps, traffic / sweep(false));
    r.stream_gbps = std::max(r.stream_gbps, traffic / sweep(true));
  }
  return r;
}

// --- buffers and patterns ----------------------------------------------

void big_buffer::deleter::operator()(void* p) const { std::free(p); }

big_buffer::big_buffer(std::size_t bytes) : bytes_(bytes) {
  const std::size_t rounded = (bytes + 63) / 64 * 64;
  void* p = std::aligned_alloc(64, rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  p_.reset(p);
  auto* b = static_cast<unsigned char*>(p);
  const auto pages = static_cast<std::int64_t>((rounded + 4095) / 4096);
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t k = 0; k < pages; ++k) {
    const std::size_t off = static_cast<std::size_t>(k) * 4096;
    std::memset(b + off, 0, std::min<std::size_t>(4096, rounded - off));
  }
}

template <typename T>
void fill_iota(T* a, std::uint64_t n) {
  const auto sn = static_cast<std::int64_t>(n);
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel for schedule(static) if (n > (1u << 16))
#endif
  for (std::int64_t i = 0; i < sn; ++i) {
    a[i] = static_cast<T>(i);
  }
}

template <typename T>
std::uint64_t check_iota(const T* a, std::uint64_t n) {
  const auto sn = static_cast<std::int64_t>(n);
  std::uint64_t bad = 0;
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel for schedule(static) reduction(+ : bad) if (n > (1u << 16))
#endif
  for (std::int64_t i = 0; i < sn; ++i) {
    bad += a[i] != static_cast<T>(i) ? 1 : 0;
  }
  return bad;
}

template <typename T>
std::uint64_t check_transposed(const T* a, std::uint64_t rows,
                               std::uint64_t cols) {
  const auto scols = static_cast<std::int64_t>(cols);
  std::uint64_t bad = 0;
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel for schedule(static) reduction(+ : bad) if (rows * cols > (1u << 16))
#endif
  for (std::int64_t sj = 0; sj < scols; ++sj) {
    const auto j = static_cast<std::uint64_t>(sj);
    const T* out = a + j * rows;
    for (std::uint64_t i = 0; i < rows; ++i) {
      bad += out[i] != static_cast<T>(i * cols + j) ? 1 : 0;
    }
  }
  return bad;
}

template void fill_iota(std::uint32_t*, std::uint64_t);
template void fill_iota(std::uint64_t*, std::uint64_t);
template std::uint64_t check_iota(const std::uint32_t*, std::uint64_t);
template std::uint64_t check_iota(const std::uint64_t*, std::uint64_t);
template std::uint64_t check_transposed(const std::uint32_t*, std::uint64_t,
                                        std::uint64_t);
template std::uint64_t check_transposed(const std::uint64_t*, std::uint64_t,
                                        std::uint64_t);

}  // namespace perfbench
