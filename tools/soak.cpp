// Transpose-as-a-service soak driver: replays a heavy-tailed trace of
// mixed-shape async requests against one shared transpose_context and
// gates on service-level invariants rather than timing tables.
//
// Traffic model:
//   * shape popularity is Zipf-distributed (a few hot shapes, a long
//     tail), the regime the LRU plan cache serves;
//   * arrivals are bursty: requests are submitted in random-length
//     bursts separated by random think-time, so queue depth swings
//     instead of sitting at a fixed point;
//   * every request carries a QoS class (interactive with a deadline /
//     standard / batch) in a fixed 1:6:3 mix.
//
// Each shape owns a small pool of slot buffers with an orientation
// parity: a slot submitted as (m, n) flips to (n, m) on success, so the
// data is always mid-flight between the two orientations and never
// copied.  At the end every odd-parity slot is repaired with one more
// transpose and compared byte-for-byte against its pristine contents —
// the bit-exactness gate, valid even when failpoints were armed (a
// failed or expired job leaves its buffer untouched and its parity
// unflipped).
//
// Gates (any failure exits nonzero):
//   * p99 enqueue-to-settle latency under --p99-limit-ms;
//   * zero deadlocks: a watchdog aborts (exit 3) if no request settles
//     for --watchdog-sec;
//   * per-class counter conservation (settled == enqueued, every class)
//     and arena conservation (created + reused == executions);
//   * zero arena-accounting drift: clear() releases every retained byte;
//   * bit-exact slot contents after parity repair;
//   * clean shutdown (every future settled; destructor joins workers).
//
// Fault passes: arm the existing failpoints via the environment, e.g.
//   INPLACE_FAILPOINTS="ctx.worker.job:fault:997:1" tools/soak \
//       --requests 100000 --expect-failpoints
// --expect-failpoints asserts at least one ctx.* failpoint actually
// fired, so a misspelled arm cannot silently produce a vacuous pass.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/failpoint.hpp"
#include "util/matrix.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace inplace;
using steady = std::chrono::steady_clock;

struct soak_options {
  std::uint64_t requests = 1'000'000;
  double p99_limit_ms = 2000.0;
  std::uint64_t watchdog_sec = 60;
  std::uint64_t seed = 42;
  std::uint64_t deadline_ms = 250;  ///< interactive-class deadline budget
  bool expect_failpoints = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--requests N] [--p99-limit-ms F] [--watchdog-sec N]\n"
      "          [--seed N] [--deadline-ms N] [--expect-failpoints]\n",
      argv0);
}

/// One slot: a buffer flipping between (m, n) and (n, m) orientations.
struct slot {
  std::vector<double> buf;
  std::vector<double> pristine;
  bool flipped = false;  ///< true: currently holds the (n, m) orientation
};

struct shape {
  std::uint64_t m = 0;
  std::uint64_t n = 0;
  std::vector<slot> slots;
  std::vector<std::size_t> free_slots;  ///< indices into slots
};

/// An in-flight request handed from the producer to the reaper.
struct record {
  std::future<void> fut;
  steady::time_point enqueued;
  std::size_t shape_idx = 0;
  std::size_t slot_idx = 0;
  qos_class qos = qos_class::standard;
};

/// The mixed-shape catalogue: hot interactive-sized shapes up front
/// (Zipf gives them most of the traffic), a long tail of larger and
/// skinny shapes behind.
std::vector<shape> make_shapes(std::size_t slots_per_shape) {
  const std::pair<std::uint64_t, std::uint64_t> dims[] = {
      {24, 18},  {32, 24},  {17, 23},  {48, 32},  {16, 16},  {40, 25},
      {64, 48},  {27, 81},  {96, 32},  {56, 72},  {33, 67},  {80, 45},
      {128, 64}, {59, 61},  {112, 36}, {144, 48}, {41, 113}, {97, 89},
      {200, 8},  {8, 200},  {320, 12}, {176, 64}, {208, 80}, {256, 96}};
  std::vector<shape> shapes;
  shapes.reserve(std::size(dims));
  for (const auto& [m, n] : dims) {
    shape s;
    s.m = m;
    s.n = n;
    for (std::size_t k = 0; k < slots_per_shape; ++k) {
      slot sl;
      sl.buf = util::iota_matrix<double>(m, n);
      sl.pristine = sl.buf;
      s.slots.push_back(std::move(sl));
      s.free_slots.push_back(k);
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

/// Zipf(s = 1.1) cumulative weights over `count` ranks.
std::vector<double> zipf_cdf(std::size_t count) {
  std::vector<double> cdf(count);
  double total = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[k] = total;
  }
  for (auto& c : cdf) {
    c /= total;
  }
  return cdf;
}

std::size_t sample_zipf(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

int run_soak(const soak_options& opt) {
  // Apply any INPLACE_FAILPOINTS from the environment before the first
  // context exists.  The INPLACE_FAILPOINT() fast path never initializes
  // the registry on its own (any_armed() is a bare atomic read), so an
  // env-armed soak must parse the spec explicitly up front.
  failpoint::reload_env();

  transpose_context ctx;  // default options: the shipped configuration
  std::vector<shape> shapes = make_shapes(/*slots_per_shape=*/8);
  const auto cdf = zipf_cdf(shapes.size());
  util::xoshiro256 rng(opt.seed);

  // Producer <-> reaper plumbing.  slots_mu guards every shape's
  // free_slots and every slot's parity; queue_mu guards the record
  // queue.  The producer takes them one at a time, never nested.
  std::mutex slots_mu;
  std::condition_variable slot_freed;
  std::mutex queue_mu;
  std::condition_variable queue_nonempty;
  std::condition_variable queue_drained;
  std::deque<record> inflight;
  constexpr std::size_t kWindow = 512;
  bool producer_done = false;

  // Reaper-side tallies.  settled_total also feeds the watchdog.
  std::atomic<std::uint64_t> settled_total{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> failed{0};
  std::array<std::vector<double>, qos_class_count> latencies_us;
  for (auto& v : latencies_us) {
    v.reserve(static_cast<std::size_t>(
        opt.requests / qos_class_count + 1024));
  }

  std::thread reaper([&] {
    for (;;) {
      record rec;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_nonempty.wait(lock, [&] {
          return !inflight.empty() || producer_done;
        });
        if (inflight.empty()) {
          return;  // producer done and everything settled
        }
        rec = std::move(inflight.front());
        inflight.pop_front();
        queue_drained.notify_all();
      }
      bool flipped_now = false;
      try {
        rec.fut.get();
        completed.fetch_add(1, std::memory_order_relaxed);
        flipped_now = true;
      } catch (const deadline_exceeded&) {
        expired.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
      const double us =
          std::chrono::duration<double, std::micro>(steady::now() -
                                                    rec.enqueued)
              .count();
      latencies_us[qos_index(rec.qos)].push_back(us);
      settled_total.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(slots_mu);
        shape& sh = shapes[rec.shape_idx];
        if (flipped_now) {
          sh.slots[rec.slot_idx].flipped =
              !sh.slots[rec.slot_idx].flipped;
        }
        sh.free_slots.push_back(rec.slot_idx);
      }
      slot_freed.notify_one();
    }
  });

  // Watchdog: the zero-deadlock gate.  Settles must keep arriving while
  // requests are outstanding; a silent queue is a hung service.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog([&] {
    std::uint64_t last = 0;
    auto last_change = steady::now();
    while (!watchdog_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const std::uint64_t now_settled =
          settled_total.load(std::memory_order_relaxed);
      if (now_settled != last) {
        last = now_settled;
        last_change = steady::now();
        continue;
      }
      bool idle;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        idle = inflight.empty();
      }
      if (idle) {
        last_change = steady::now();  // nothing outstanding: not a hang
        continue;
      }
      const auto stalled = std::chrono::duration_cast<std::chrono::seconds>(
                               steady::now() - last_change)
                               .count();
      if (stalled >= static_cast<long>(opt.watchdog_sec)) {
        std::fprintf(stderr,
                     "soak: DEADLOCK — no request settled for %llus with "
                     "work outstanding (settled=%llu)\n",
                     static_cast<unsigned long long>(opt.watchdog_sec),
                     static_cast<unsigned long long>(now_settled));
        std::_Exit(3);
      }
    }
  });

  // Producer: Zipf shapes, bursty arrivals, 1:6:3 QoS mix.
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  util::timer wall;
  std::uint64_t burst_left = 1 + rng.uniform(0, 63);
  for (std::uint64_t k = 0; k < opt.requests; ++k) {
    // Pick a shape by popularity, then any shape (from the sampled rank
    // onward) with a free slot; park when everything is in flight.
    std::size_t shape_idx = 0;
    std::size_t slot_idx = 0;
    {
      std::unique_lock<std::mutex> lock(slots_mu);
      for (;;) {
        const std::size_t start = sample_zipf(cdf, rng.uniform_double());
        bool found = false;
        for (std::size_t probe = 0; probe < shapes.size(); ++probe) {
          const std::size_t idx = (start + probe) % shapes.size();
          if (!shapes[idx].free_slots.empty()) {
            shape_idx = idx;
            slot_idx = shapes[idx].free_slots.back();
            shapes[idx].free_slots.pop_back();
            found = true;
            break;
          }
        }
        if (found) {
          break;
        }
        slot_freed.wait(lock);
      }
    }

    shape& sh = shapes[shape_idx];
    const bool flipped = [&] {
      std::lock_guard<std::mutex> lock(slots_mu);
      return sh.slots[slot_idx].flipped;
    }();
    const std::uint64_t rows = flipped ? sh.n : sh.m;
    const std::uint64_t cols = flipped ? sh.m : sh.n;

    job_options sched;
    const std::uint64_t mix = k % 10;
    if (mix == 0) {
      sched.qos = qos_class::interactive;
      sched.deadline =
          steady::now() + std::chrono::milliseconds(opt.deadline_ms);
    } else if (mix <= 6) {
      sched.qos = qos_class::standard;
    } else {
      sched.qos = qos_class::batch;
    }

    record rec;
    rec.enqueued = steady::now();
    rec.shape_idx = shape_idx;
    rec.slot_idx = slot_idx;
    rec.qos = sched.qos;
    try {
      rec.fut = ctx.submit(sh.slots[slot_idx].buf.data(), rows, cols,
                           storage_order::row_major, options{}, sched);
      ++submitted;
    } catch (...) {
      // Injected enqueue fault (or shutdown): the job never entered the
      // queue and the buffer is untouched — return the slot and move on.
      ++rejected;
      {
        std::lock_guard<std::mutex> lock(slots_mu);
        sh.free_slots.push_back(slot_idx);
      }
      slot_freed.notify_one();
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      queue_drained.wait(lock, [&] { return inflight.size() < kWindow; });
      inflight.push_back(std::move(rec));
    }
    queue_nonempty.notify_one();

    if (--burst_left == 0) {
      burst_left = 1 + rng.uniform(0, 63);
      if (rng.uniform(0, 7) == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.uniform(50, 500)));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu);
    producer_done = true;
  }
  queue_nonempty.notify_all();
  reaper.join();
  watchdog_stop.store(true, std::memory_order_relaxed);
  watchdog.join();
  const double wall_s = wall.seconds();

  int rc = 0;
  const auto fail = [&rc](const char* fmt, auto... args) {
    std::fprintf(stderr, fmt, args...);
    rc = 1;
  };

  // --- Gate: every submission settled exactly once.
  const std::uint64_t settled = settled_total.load();
  if (settled != submitted) {
    fail("soak: FAIL settled %llu != submitted %llu\n",
         static_cast<unsigned long long>(settled),
         static_cast<unsigned long long>(submitted));
  }

  // --- Gate: per-class counter conservation after the drain.
  const context_stats stats = ctx.stats();
  for (std::size_t k = 0; k < qos_class_count; ++k) {
    if (stats.qos[k].settled() != stats.qos[k].enqueued) {
      fail("soak: FAIL class %s settled %llu != enqueued %llu\n",
           qos_class_name(static_cast<qos_class>(k)),
           static_cast<unsigned long long>(stats.qos[k].settled()),
           static_cast<unsigned long long>(stats.qos[k].enqueued));
    }
  }
  if (stats.async_jobs != submitted) {
    fail("soak: FAIL async_jobs %llu != submitted %llu\n",
         static_cast<unsigned long long>(stats.async_jobs),
         static_cast<unsigned long long>(submitted));
  }

  // --- Gate: arena conservation (always) and execution accounting
  // (exact only when no faults were injected: a poisoned job settles
  // without running).
  if (stats.arenas_created + stats.arenas_reused != stats.executions) {
    fail("soak: FAIL arena conservation (created %llu + reused %llu != "
         "executions %llu)\n",
         static_cast<unsigned long long>(stats.arenas_created),
         static_cast<unsigned long long>(stats.arenas_reused),
         static_cast<unsigned long long>(stats.executions));
  }
  if (!failpoint::any_armed() &&
      stats.executions != completed.load()) {
    fail("soak: FAIL executions %llu != completed %llu (no faults armed)\n",
         static_cast<unsigned long long>(stats.executions),
         static_cast<unsigned long long>(completed.load()));
  }

  // --- Gate: bit-exactness.  Repair odd-parity slots with one more
  // (synchronous) transpose, then compare against pristine.
  std::uint64_t corrupt = 0;
  for (auto& sh : shapes) {
    for (auto& sl : sh.slots) {
      if (sl.flipped) {
        ctx.transpose(sl.buf.data(), sh.n, sh.m);
        sl.flipped = false;
      }
      if (sl.buf != sl.pristine) {
        ++corrupt;
      }
    }
  }
  if (corrupt != 0) {
    fail("soak: FAIL %llu slot(s) not bit-exact after parity repair\n",
         static_cast<unsigned long long>(corrupt));
  }

  // --- Gate: zero arena-accounting drift.
  ctx.clear();
  if (ctx.cached_bytes() != 0) {
    fail("soak: FAIL %zu retained bytes after clear()\n",
         ctx.cached_bytes());
  }

  // --- Gate: p99 latency.
  std::vector<double> all_us;
  all_us.reserve(settled);
  std::printf("soak: %llu requests in %.1fs (%.0f req/s), %llu rejected\n",
              static_cast<unsigned long long>(submitted), wall_s,
              static_cast<double>(submitted) / wall_s,
              static_cast<unsigned long long>(rejected));
  std::printf("  %-12s %10s %12s %12s %12s\n", "class", "settled",
              "p50 us", "p99 us", "max us");
  for (std::size_t k = 0; k < qos_class_count; ++k) {
    const auto& v = latencies_us[k];
    all_us.insert(all_us.end(), v.begin(), v.end());
    if (v.empty()) {
      continue;
    }
    std::printf("  %-12s %10zu %12.0f %12.0f %12.0f\n",
                qos_class_name(static_cast<qos_class>(k)), v.size(),
                util::quantile(v, 0.5), util::quantile(v, 0.99),
                util::max_value(v));
  }
  std::printf("  completed %llu, deadline-expired %llu, failed %llu\n",
              static_cast<unsigned long long>(completed.load()),
              static_cast<unsigned long long>(expired.load()),
              static_cast<unsigned long long>(failed.load()));
  std::printf("  cache: hits %llu, misses %llu, evictions %llu; "
              "pool: created %llu, reused %llu\n",
              static_cast<unsigned long long>(stats.plan_hits),
              static_cast<unsigned long long>(stats.plan_misses),
              static_cast<unsigned long long>(stats.plan_evictions),
              static_cast<unsigned long long>(stats.arenas_created),
              static_cast<unsigned long long>(stats.arenas_reused));
  if (!all_us.empty()) {
    const double p99_ms = util::quantile(all_us, 0.99) / 1000.0;
    std::printf("  overall p99: %.2f ms (limit %.2f ms)\n", p99_ms,
                opt.p99_limit_ms);
    if (p99_ms > opt.p99_limit_ms) {
      fail("soak: FAIL p99 %.2f ms exceeds the %.2f ms limit\n", p99_ms,
           opt.p99_limit_ms);
    }
  }

  // --- Gate: the fault pass actually injected faults.
  if (opt.expect_failpoints) {
    const std::uint64_t fired =
        failpoint::fires("ctx.worker.job") +
        failpoint::fires("ctx.queue.push") +
        failpoint::fires("ctx.sched.pop") +
        failpoint::fires("ctx.cache.evict") + failpoint::fires("ctx.spawn");
    if (fired == 0) {
      fail("soak: FAIL --expect-failpoints but no ctx.* failpoint fired "
           "(check the INPLACE_FAILPOINTS spelling)\n");
    } else {
      std::printf("  failpoints: %llu ctx.* fire(s) observed\n",
                  static_cast<unsigned long long>(fired));
    }
  }

  // Clean shutdown: deterministic even with rc != 0 (the destructor
  // would do this too; doing it explicitly makes the gate visible).
  ctx.shutdown();
  std::printf("soak: %s\n", rc == 0 ? "all gates green" : "FAILED");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  soak_options opt;
  for (int k = 1; k < argc; ++k) {
    const std::string_view arg = argv[k];
    const auto next_u64 = [&](std::uint64_t& out) {
      if (k + 1 >= argc) {
        return false;
      }
      const auto v = util::parse_u64(argv[++k]);
      if (!v) {
        return false;
      }
      out = *v;
      return true;
    };
    if (arg == "--requests") {
      if (!next_u64(opt.requests)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--p99-limit-ms") {
      const auto v = k + 1 < argc ? util::parse_f64(argv[++k])
                                  : std::optional<double>{};
      if (!v || *v <= 0.0) {
        usage(argv[0]);
        return 2;
      }
      opt.p99_limit_ms = *v;
    } else if (arg == "--watchdog-sec") {
      if (!next_u64(opt.watchdog_sec)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--seed") {
      if (!next_u64(opt.seed)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--deadline-ms") {
      if (!next_u64(opt.deadline_ms)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--expect-failpoints") {
      opt.expect_failpoints = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  return run_soak(opt);
}
