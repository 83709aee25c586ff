// matrix-large and aos-soa: fixed seeded shape sets, every buffer at least
// four times the L3 size, one calling thread, OpenMP's default team.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/transpose.hpp"
#include "cpu/soa.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// 4 x the 300 MiB L3 of the reference host, rounded up: the smallest
/// buffer any shape may use.
constexpr std::uint64_t min_bytes = std::uint64_t{1200} << 20;

struct big_shape {
  std::string name;
  std::size_t elem = 8;
  std::uint64_t rows = 0;  ///< matrix rows, or AoS structure count
  std::uint64_t cols = 0;  ///< matrix cols, or AoS fields
  [[nodiscard]] std::uint64_t elements() const { return rows * cols; }
  [[nodiscard]] std::uint64_t bytes() const { return elements() * elem; }
};

std::uint64_t pick(std::mt19937_64& rng, std::uint64_t lo, std::uint64_t hi) {
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
}

/// Tall coprime m x n (m > n) with m in [m_lo, m_lo + 500].
big_shape coprime_shape(std::mt19937_64& rng, std::size_t elem,
                        std::uint64_t m_lo) {
  const std::uint64_t m = pick(rng, m_lo, m_lo + 500);
  std::uint64_t n = (min_bytes / elem + m - 1) / m;
  while (std::gcd(m, n) != 1) {
    ++n;
  }
  return {"coprime", elem, m, n};
}

/// gcd-rich 13c x 11c with c drawn so the buffer lands in [1.2, 1.3] GiB.
big_shape gcd_rich_shape(std::mt19937_64& rng, std::size_t elem) {
  const std::uint64_t per_c2 = 13 * 11 * elem;
  auto c = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(min_bytes) / per_c2)));
  c += pick(rng, 0, c / 40);
  return {"gcd_rich", elem, 13 * c, 11 * c};
}

/// AoS problem: `count` structures of `fields` elements, count a multiple
/// of `lanes` when `divisible`, else odd.
big_shape aos_shape(std::mt19937_64& rng, std::size_t elem,
                    std::uint64_t fields, std::uint64_t lanes,
                    bool divisible, const char* name) {
  std::uint64_t count = (min_bytes / elem + fields - 1) / fields;
  count += pick(rng, 0, count / 100);
  if (divisible) {
    count = (count + lanes - 1) / lanes * lanes;
  } else {
    count |= 1;
  }
  return {name, elem, count, fields};
}

std::vector<big_shape> make_shapes(std::uint64_t seed, bool aos) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + (aos ? 2 : 1));
  std::vector<big_shape> s;
  if (!aos) {
    s.push_back(coprime_shape(rng, 8, 16000));
    s.push_back(gcd_rich_shape(rng, 8));
    s.push_back(coprime_shape(rng, 4, 24000));
    s.push_back(gcd_rich_shape(rng, 4));
  } else {
    // Lane widths of the AVX-512 tile tier (16 x u32, 8 x u64); on other
    // tiers the "tile" shapes still run, through whatever the gate picks.
    // The field counts are fixed and only the counts are seeded: a field
    // count drawn per seed moved the slowest shape, and with it
    // gbps_worst and p99_ms, by 30% from seed to seed.
    s.push_back(aos_shape(rng, 4, 8, 16, true, "tile"));
    s.push_back(aos_shape(rng, 8, 8, 8, true, "tile"));
    s.push_back(aos_shape(rng, 4, 7, 16, false, "odd"));
    s.push_back(aos_shape(rng, 8, 24, 8, false, "wide"));
  }
  for (auto& sh : s) {
    sh.name += sh.elem == 4 ? "_f32_" : "_f64_";
    sh.name += std::to_string(sh.rows) + "x" + std::to_string(sh.cols);
  }
  return s;
}

/// One public call: direction 0 takes the iota layout to its transpose
/// (transpose / aos_to_soa), direction 1 takes it back.
template <typename T>
void public_call(T* p, const big_shape& s, bool aos, int direction) {
  if (aos) {
    if (direction == 0) {
      inplace::aos_to_soa(p, s.rows, s.cols);
    } else {
      inplace::soa_to_aos(p, s.rows, s.cols);
    }
  } else if (direction == 0) {
    inplace::transpose(p, s.rows, s.cols);
  } else {
    inplace::transpose(p, s.cols, s.rows);
  }
}

struct op_sample {
  std::size_t shape;
  int direction;
  double seconds;
  double bytes;
};

/// Fills the buffer, then runs both directions of shape `k` with each
/// output checked outside the timed region.  Returns the two samples.
template <typename T>
void run_shape(void* buf, const big_shape& s, std::size_t k, bool aos,
               report& r, std::vector<op_sample>& out, span_counter* spans) {
  T* p = static_cast<T*>(buf);
  fill_iota(p, s.elements());
  const double bytes = static_cast<double>(eq37_bytes(s.elements(), s.elem));
  for (int d = 0; d < 2; ++d) {
    const auto t0 = bench_clock::now();
    public_call(p, s, aos, d);
    const auto t1 = bench_clock::now();
    if (spans != nullptr) {
      spans->add(t0, t1);
    }
    out.push_back({k, d, secs(t0, t1), bytes});
    r.count(d == 0 ? check_transposed(p, s.rows, s.cols) == 0
                   : check_iota(p, s.elements()) == 0);
  }
}

void run_round(void* buf, const std::vector<big_shape>& shapes, bool aos,
               report& r, std::vector<op_sample>& out, span_counter* spans) {
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    if (shapes[k].elem == 4) {
      run_shape<std::uint32_t>(buf, shapes[k], k, aos, r, out, spans);
    } else {
      run_shape<std::uint64_t>(buf, shapes[k], k, aos, r, out, spans);
    }
  }
}

double total_secs(const std::vector<op_sample>& v) {
  double t = 0;
  for (const auto& s : v) {
    t += s.seconds;
  }
  return t;
}

}  // namespace

void run_large(const run_args& args, bool aos, report& r) {
  const std::vector<big_shape> shapes = make_shapes(args.seed, aos);
  std::uint64_t max_bytes = 0;
  for (const auto& s : shapes) {
    max_bytes = std::max(max_bytes, s.bytes());
  }
  const double calib_ms = args.trace ? calibration_probe_ms() : 0.0;
  big_buffer buf(max_bytes);

  roof rf;
  if (!args.trace) {
    // Setup: from the first library call until every key (each shape in
    // both directions) has run once; the benchmark's own fills and checks
    // between calls are excluded.
    std::vector<op_sample> setup_ops;
    run_round(buf.data(), shapes, aos, r, setup_ops, nullptr);
    const double setup_s = total_secs(setup_ops);

    std::vector<op_sample> ops;
    // Whole rounds until the measuring time is spent.
    const auto t0 = bench_clock::now();
    do {
      run_round(buf.data(), shapes, aos, r, ops, nullptr);
    } while (secs(t0, bench_clock::now()) < args.seconds);
    const double rss = peak_rss_mib();

    double bytes = 0;
    double time = 0;
    double worst = 0;
    std::vector<double> key_med;
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      double kb = 0;
      double kt = 0;
      std::vector<double> key_lat[2];
      for (const auto& o : ops) {
        if (o.shape == k) {
          kb += o.bytes;
          kt += o.seconds;
          key_lat[o.direction].push_back(o.seconds);
        }
      }
      const double g = kb / kt / 1e9;
      worst = k == 0 ? g : std::min(worst, g);
      key_med.push_back(median(key_lat[0]));
      key_med.push_back(median(key_lat[1]));
    }
    for (const auto& o : ops) {
      bytes += o.bytes;
      time += o.seconds;
    }
    // Every key runs equally often, so the median call latency is the
    // median over the keys' median latencies; taking it per key keeps one
    // slow call from moving it across the gap between fast and slow keys.
    // Fewer than a thousand calls cannot support a p99 under the
    // percentile rule; the tail reported is the slowest key's median.
    // Rates divide by the time spent in the library only; the fills and
    // checks between calls are the benchmark's own work.
    r.add("gbps", bytes / time / 1e9, "GB/s");
    r.add("gbps_worst", worst, "GB/s");
    r.add("ops_per_s", static_cast<double>(ops.size()) / time, "1/s");
    r.add("p50_ms", 1e3 * median(key_med), "ms");
    r.add("p99_ms", 1e3 * *std::max_element(key_med.begin(), key_med.end()),
          "ms");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mib", rss, "MiB");
    rf = measure_roof(buf.data(), buf.bytes());
  } else {
    // Trace overhead on the first shape: a warm-up pair of calls, then one
    // pair without and one pair with span recording.
    const std::vector<big_shape> first(shapes.begin(), shapes.begin() + 1);
    std::vector<op_sample> warm;
    std::vector<op_sample> plain;
    std::vector<op_sample> traced;
    span_counter spans;
    run_round(buf.data(), first, aos, r, warm, nullptr);
    run_round(buf.data(), first, aos, r, plain, nullptr);
    run_round(buf.data(), first, aos, r, traced, &spans);

    layer_acc own;
    for (const auto& s : shapes) {
      if (s.elem == 4) {
        probe_2d(static_cast<std::uint32_t*>(buf.data()), s.rows, s.cols, 1,
                 own);
      } else {
        probe_2d(static_cast<std::uint64_t*>(buf.data()), s.rows, s.cols, 1,
                 own);
      }
    }
    r.attempted += own.attempted;
    r.failed += own.failed;
    rf = measure_roof(buf.data(), buf.bytes());

    layer_acc side;
    catalogue_layers(args.seed, 2.0, r, side);
    r.attempted += side.attempted;
    r.failed += side.failed;
    r.correct = r.failed == 0;
    add_engine_metrics(r, own, side, rf);

    const inplace::context_stats st = inplace::default_context().stats();
    const double plans = static_cast<double>(st.plan_hits + st.plan_misses);
    const double arenas =
        static_cast<double>(st.arenas_reused + st.arenas_created);
    r.add("context.hit_ratio", static_cast<double>(st.plan_hits) / plans,
          "ratio");
    r.add("context.arena_reuse_ratio",
          static_cast<double>(st.arenas_reused) / arenas, "ratio");
    r.add("context.evictions", static_cast<double>(st.plan_evictions),
          "count");
    r.add("context.arenas_dropped", static_cast<double>(st.arenas_dropped),
          "count");
    r.add("context.cached_mib",
          static_cast<double>(inplace::default_context().cached_bytes()) /
              (1024.0 * 1024.0),
          "MiB");
    r.add("tensor_plan.calibration_ms", calib_ms, "ms");
    r.add("trace.overhead_frac", spans.seconds / total_secs(plain) - 1.0,
          "ratio");
  }

  json::array keys;
  for (const auto& s : shapes) {
    keys.emplace_back(json::object{{"name", s.name},
                                   {"bytes", s.bytes()},
                                   {"plans", key_stamp(s.rows, s.cols, s.elem)}});
  }
  std::printf("%s\n", config_stamp(args, rf, std::move(keys)).c_str());
}

}  // namespace perfbench
