// mixed-requests: closed-loop service traffic on one transpose_context.
// One producer draws a Zipf-popular mix from a seeded catalogue holding
// more distinct keys than the context's max_plans, so evictions and cold
// rebuilds happen at steady state.  Half the requests are 2-D transposes
// and AoS<->SoA conversions through submit() with a QoS mix (at most nproc
// outstanding); the other half are permute_nd and permute as synchronous
// calls.  The producer plus the context's workers total nproc threads, and
// every request uses options::threads = 1.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/tensor_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ip = inplace;

enum class req { transpose, aos_soa, permute_nd, permute };
constexpr int req_kinds = 4;

/// One distinct request key of the catalogue.
struct cat_key {
  req kind = req::transpose;
  std::size_t elem = 4;
  std::uint64_t rows = 0;  ///< 2-D: input rows (AoS: count, SoA: fields)
  std::uint64_t cols = 0;
  std::vector<std::size_t> dims;  ///< permute_nd
  std::vector<int> perm;
  std::size_t index_width = 4;  ///< permute: u32 or u64 indices
  ip::perm_kind intended = ip::perm_kind::generic;
  std::vector<std::uint32_t> pi32;
  std::vector<std::uint64_t> pi64;
  std::uint64_t elements = 0;

  [[nodiscard]] bool async() const {
    return kind == req::transpose || kind == req::aos_soa;
  }
  [[nodiscard]] double bytes() const {
    return static_cast<double>(eq37_bytes(elements, elem));
  }
};

std::uint64_t jitter(std::mt19937_64& rng, std::uint64_t base,
                     std::uint64_t spread) {
  return base + std::uniform_int_distribution<std::uint64_t>(0, spread)(rng);
}

/// The catalogue: ten templates per request kind, interleaved so that
/// within the async half (transpose, aos_soa) and within the sync half
/// (permute_nd, permute) the kinds alternate by Zipf rank.  The seed jitters extents, rotation
/// offsets and generic permutations; the templates themselves are fixed so
/// the cost mix stays the same from seed to seed.
std::vector<cat_key> make_catalogue(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dull + 7);
  const std::uint64_t t2d[10][2] = {{64, 96},   {96, 72},   {128, 100},
                                    {150, 200}, {200, 128}, {256, 192},
                                    {100, 300}, {320, 240}, {48, 500},
                                    {512, 160}};
  // {count, fields, lanes-divisible}
  const std::uint64_t aos[10][3] = {{4096, 4, 1}, {2048, 8, 1}, {3000, 3, 0},
                                    {1024, 16, 1}, {5000, 5, 0}, {2500, 12, 0},
                                    {8192, 2, 1}, {1500, 7, 0}, {4000, 6, 0},
                                    {2048, 24, 0}};
  struct nd_t {
    std::vector<std::size_t> dims;
    std::vector<int> perm;
  };
  const nd_t nd[10] = {{{2, 16, 14, 14}, {0, 2, 3, 1}},
                       {{2, 14, 14, 16}, {0, 3, 1, 2}},
                       {{16, 24, 32}, {2, 1, 0}},
                       {{6, 8, 10, 12}, {3, 2, 1, 0}},
                       {{1, 32, 16, 16}, {0, 2, 3, 1}},
                       {{4, 12, 12, 8}, {0, 3, 1, 2}},
                       {{10, 20, 30}, {2, 1, 0}},
                       {{4, 6, 8, 10}, {3, 2, 1, 0}},
                       {{8, 8, 12, 12}, {0, 2, 3, 1}},
                       {{20, 30, 40}, {2, 1, 0}}};
  std::vector<cat_key> cat;
  for (int t = 0; t < 10; ++t) {
    const std::size_t elem = t % 2 == 0 ? 4 : 8;
    {
      cat_key k;
      k.kind = req::transpose;
      k.elem = elem;
      k.rows = jitter(rng, t2d[t][0], 4);
      k.cols = jitter(rng, t2d[t][1], 4);
      k.elements = k.rows * k.cols;
      cat.push_back(k);
    }
    {
      cat_key k;
      k.kind = req::aos_soa;
      k.elem = elem == 4 ? 8 : 4;
      const std::uint64_t lanes = k.elem == 4 ? 16 : 8;
      std::uint64_t count = jitter(rng, aos[t][0], aos[t][0] / 16);
      count = aos[t][2] != 0 ? (count + lanes - 1) / lanes * lanes : count | 1;
      // Even templates convert AoS -> SoA, odd ones SoA -> AoS.
      k.rows = t % 2 == 0 ? count : aos[t][1];
      k.cols = t % 2 == 0 ? aos[t][1] : count;
      k.elements = k.rows * k.cols;
      cat.push_back(k);
    }
    {
      cat_key k;
      k.kind = req::permute_nd;
      k.elem = elem;
      k.dims = nd[t].dims;
      k.perm = nd[t].perm;
      k.dims.back() += jitter(rng, 0, 2);
      k.elements = std::accumulate(k.dims.begin(), k.dims.end(),
                                   std::uint64_t{1}, std::multiplies<>());
      cat.push_back(k);
    }
    {
      cat_key k;
      k.kind = req::permute;
      k.elem = elem;
      k.index_width = t % 4 < 2 ? 4 : 8;
      std::vector<std::uint64_t> pi;
      if (t % 3 == 0) {
        const std::uint64_t w = 12 + static_cast<std::uint64_t>(t) / 3;
        pi.resize(std::size_t{1} << w);
        for (std::uint64_t i = 0; i < pi.size(); ++i) {
          pi[i] = ip::detail::perm_bitrev(i, w);
        }
        k.intended = ip::perm_kind::bit_reversal;
      } else if (t % 3 == 1) {
        const std::uint64_t n = jitter(rng, 9000 + 3000 * t, 200);
        const std::uint64_t off = jitter(rng, 1, n - 2);
        pi.resize(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          pi[i] = (i + off) % n;
        }
        k.intended = ip::perm_kind::rotation;
      } else {
        const std::uint64_t n = jitter(rng, 3000 + 2000 * t, 200);
        pi.resize(n);
        std::iota(pi.begin(), pi.end(), std::uint64_t{0});
        std::shuffle(pi.begin(), pi.end(), rng);
        k.intended = ip::perm_kind::generic;
      }
      k.elements = pi.size();
      if (k.index_width == 4) {
        k.pi32.assign(pi.begin(), pi.end());
      } else {
        k.pi64 = std::move(pi);
      }
      cat.push_back(k);
    }
  }
  return cat;
}

/// Expected permute_nd output: output axis k takes input axis perm[k].
template <typename T>
std::uint64_t check_nd(const T* a, const cat_key& k) {
  const std::size_t rank = k.dims.size();
  std::vector<std::uint64_t> in_stride(rank, 1);
  for (std::size_t d = rank - 1; d-- > 0;) {
    in_stride[d] = in_stride[d + 1] * k.dims[d + 1];
  }
  std::vector<std::uint64_t> idx(rank, 0);
  std::uint64_t bad = 0;
  for (std::uint64_t o = 0; o < k.elements; ++o) {
    std::uint64_t src = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      src += idx[d] * in_stride[static_cast<std::size_t>(k.perm[d])];
    }
    bad += a[o] != static_cast<T>(src) ? 1 : 0;
    for (std::size_t d = rank; d-- > 0;) {
      if (++idx[d] < k.dims[static_cast<std::size_t>(k.perm[d])]) {
        break;
      }
      idx[d] = 0;
    }
  }
  return bad;
}

template <typename T>
bool check_key(const T* a, const cat_key& k) {
  switch (k.kind) {
    case req::transpose:
    case req::aos_soa:
      return check_transposed(a, k.rows, k.cols) == 0;
    case req::permute_nd:
      return check_nd(a, k) == 0;
    case req::permute:
      for (std::uint64_t i = 0; i < k.elements; ++i) {
        const std::uint64_t want =
            k.index_width == 4 ? k.pi32[i] : k.pi64[i];
        if (a[i] != static_cast<T>(want)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

ip::options one_thread() {
  ip::options o;
  o.threads = 1;
  return o;
}

/// Runs key `k` synchronously on the context.
template <typename T>
void call_sync(ip::transpose_context& ctx, T* a, const cat_key& k) {
  const ip::options o = one_thread();
  switch (k.kind) {
    case req::transpose:
    case req::aos_soa:
      ctx.transpose(a, k.rows, k.cols, ip::storage_order::row_major, o);
      return;
    case req::permute_nd:
      ctx.permute_nd(a, std::span<const std::size_t>(k.dims),
                     std::span<const int>(k.perm), o);
      return;
    case req::permute:
      if (k.index_width == 4) {
        ctx.permute(a, std::span<const std::uint32_t>(k.pi32), false, o);
      } else {
        ctx.permute(a, std::span<const std::uint64_t>(k.pi64), false, o);
      }
      return;
  }
}

struct sample {
  std::uint32_t key;
  double seconds;
  bench_clock::time_point done;
};

/// The closed-loop traffic engine over one catalogue and context.  Each
/// request slot has a watcher thread that blocks on the slot's future and
/// stamps the completion when it happens, so an async request's latency
/// never includes the producer's own work (fills, checks, synchronous
/// calls).  The watchers and the producer sleep rather than spin: with a
/// spinning watcher holding a core, the closed-loop rate moved by 20% from
/// run to run of the same seed.
class traffic {
 public:
  traffic(const std::vector<cat_key>& cat, std::uint64_t seed,
          std::size_t max_outstanding)
      : cat_(cat), rng_(seed * 0x9e3779b97f4a7c15ull + 11),
        max_out_(max_outstanding), inflight_(max_outstanding) {
    std::uint64_t max_elems = 0;
    for (const auto& k : cat_) {
      max_elems = std::max(max_elems, k.elements);
    }
    for (std::size_t s = 0; s <= max_out_; ++s) {
      slots_.emplace_back(max_elems + 8);
      free_.push_back(s);
    }
    for (std::uint32_t k = 0; k < cat_.size(); ++k) {
      half_[cat_[k].async() ? 0 : 1].push_back(k);
    }
    for (int h = 0; h < 2; ++h) {
      double acc = 0;
      for (std::size_t r = 1; r <= half_[h].size(); ++r) {
        acc += 1.0 / static_cast<double>(r);
        cdf_[h].push_back(acc);
      }
      for (auto& c : cdf_[h]) {
        c /= acc;
      }
    }
    for (auto& p : inflight_) {
      watchers_.emplace_back([this, &p] { watch(p); });
    }
  }

  ~traffic() {
    for (auto& p : inflight_) {
      while (p.state.load(std::memory_order_acquire) == in_flight) {
        std::this_thread::yield();
      }
      p.state.store(stopped, std::memory_order_release);
      p.state.notify_one();
    }
    for (auto& w : watchers_) {
      w.join();
    }
  }
  traffic(const traffic&) = delete;
  traffic& operator=(const traffic&) = delete;

  /// Draws the async or the sync half with probability 1/2 each, then a
  /// key of that half by Zipf rank.
  [[nodiscard]] std::uint32_t draw() {
    const int h = std::bernoulli_distribution(0.5)(rng_) ? 0 : 1;
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    const auto it = std::lower_bound(cdf_[h].begin(), cdf_[h].end(), u);
    return half_[h][std::min<std::size_t>(it - cdf_[h].begin(),
                                           cdf_[h].size() - 1)];
  }

  /// Requests issued, and of those the ones that went through submit().
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t issued_async() const { return issued_async_; }

  /// Issues key `k` (async or sync per its kind), reaping completions.
  void issue(ip::transpose_context& ctx, std::uint32_t k, report& r,
             std::vector<sample>& out, span_counter* spans) {
    const cat_key& key = cat_[k];
    ++issued_;
    issued_async_ += key.async() ? 1 : 0;
    reap(r, out, spans, false);
    if (key.async() && outstanding_ >= max_out_) {
      reap(r, out, spans, true);
    }
    const std::size_t slot = free_.back();
    free_.pop_back();
    void* buf = slots_[slot].data();
    fill(buf, key);
    if (key.async()) {
      static const ip::qos_class mix[10] = {
          ip::qos_class::interactive, ip::qos_class::interactive,
          ip::qos_class::standard,    ip::qos_class::standard,
          ip::qos_class::standard,    ip::qos_class::standard,
          ip::qos_class::standard,    ip::qos_class::batch,
          ip::qos_class::batch,       ip::qos_class::batch};
      ip::job_options jo;
      jo.qos = mix[std::uniform_int_distribution<int>(0, 9)(rng_)];
      pending* p = nullptr;
      for (auto& e : inflight_) {
        if (e.state.load(std::memory_order_relaxed) == slot_free) {
          p = &e;
          break;
        }
      }
      p->key = k;
      p->slot = slot;
      p->t0 = bench_clock::now();
      p->fut = key.elem == 4
                   ? ctx.submit(static_cast<std::uint32_t*>(buf), key.rows,
                                key.cols, ip::storage_order::row_major,
                                one_thread(), jo)
                   : ctx.submit(static_cast<std::uint64_t*>(buf), key.rows,
                                key.cols, ip::storage_order::row_major,
                                one_thread(), jo);
      p->state.store(in_flight, std::memory_order_release);
      p->state.notify_one();
      ++outstanding_;
      return;
    }
    const auto t0 = bench_clock::now();
    bool ok = true;
    try {
      if (key.elem == 4) {
        call_sync(ctx, static_cast<std::uint32_t*>(buf), key);
      } else {
        call_sync(ctx, static_cast<std::uint64_t*>(buf), key);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: key %u threw: %s\n", k, e.what());
      ok = false;
    }
    const auto t1 = bench_clock::now();
    finish(k, slot, t0, t1, ok, r, out, spans);
  }

  /// Waits for every outstanding request.
  void drain(report& r, std::vector<sample>& out, span_counter* spans) {
    while (outstanding_ > 0) {
      reap(r, out, spans, true);
    }
  }

 private:
  /// One request slot.  `state` hands the entry back and forth: the
  /// producer owns it while free (fills it, then publishes in_flight), the
  /// slot's watcher while in flight (stamps t1, then publishes finished),
  /// and the producer again once finished.
  enum : int { slot_free = 0, in_flight = 1, finished = 2, stopped = 3 };
  struct pending {
    std::future<void> fut;
    std::uint32_t key = 0;
    std::size_t slot = 0;
    bench_clock::time_point t0;
    bench_clock::time_point t1;
    std::atomic<int> state{slot_free};
  };

  /// A slot's watcher: sleeps until the slot is in flight, blocks on its
  /// future, stamps the completion, wakes the producer, and sleeps again.
  void watch(pending& p) {
    int seen = slot_free;
    for (;;) {
      p.state.wait(seen, std::memory_order_acquire);
      seen = p.state.load(std::memory_order_acquire);
      if (seen == stopped) {
        return;
      }
      if (seen == in_flight) {
        p.fut.wait();
        p.t1 = bench_clock::now();
        p.state.store(finished, std::memory_order_release);
        completions_.fetch_add(1, std::memory_order_release);
        completions_.notify_one();
        seen = finished;
      }
    }
  }

  void fill(void* buf, const cat_key& k) {
    if (k.elem == 4) {
      fill_iota(static_cast<std::uint32_t*>(buf), k.elements);
    } else {
      fill_iota(static_cast<std::uint64_t*>(buf), k.elements);
    }
  }

  /// Completes every finished request; with `block`, sleeps until at least
  /// one finishes.  Outputs are checked after their completion stamps were
  /// taken.
  void reap(report& r, std::vector<sample>& out, span_counter* spans,
            bool block) {
    for (;;) {
      const std::uint32_t seen = completions_.load(std::memory_order_acquire);
      std::size_t reaped = 0;
      for (auto& p : inflight_) {
        if (p.state.load(std::memory_order_acquire) != finished) {
          continue;
        }
        bool ok = true;
        try {
          p.fut.get();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: key %u failed: %s\n", p.key,
                       e.what());
          ok = false;
        }
        finish(p.key, p.slot, p.t0, p.t1, ok, r, out, spans);
        p.state.store(slot_free, std::memory_order_release);
        p.state.notify_one();
        --outstanding_;
        ++reaped;
      }
      if (!block || reaped > 0 || outstanding_ == 0) {
        return;
      }
      completions_.wait(seen, std::memory_order_acquire);
    }
  }

  void finish(std::uint32_t k, std::size_t slot, bench_clock::time_point t0,
              bench_clock::time_point t1, bool ok, report& r,
              std::vector<sample>& out, span_counter* spans) {
    const cat_key& key = cat_[k];
    const void* buf = slots_[slot].data();
    if (ok) {
      ok = key.elem == 4
               ? check_key(static_cast<const std::uint32_t*>(buf), key)
               : check_key(static_cast<const std::uint64_t*>(buf), key);
    }
    r.count(ok);
    out.push_back({k, secs(t0, t1), t1});
    if (spans != nullptr) {
      spans->add(t0, t1);
    }
    free_.push_back(slot);
  }

  const std::vector<cat_key>& cat_;
  std::mt19937_64 rng_;
  const std::size_t max_out_;
  std::vector<std::vector<std::uint64_t>> slots_;
  std::vector<std::size_t> free_;
  std::vector<std::uint32_t> half_[2];  ///< async, sync keys in rank order
  std::vector<double> cdf_[2];          ///< Zipf CDF over each half
  std::uint64_t issued_ = 0;
  std::uint64_t issued_async_ = 0;
  std::size_t outstanding_ = 0;  ///< producer-side size of inflight_

  std::vector<pending> inflight_;  ///< max_out_ entries, never resized
  std::vector<std::thread> watchers_;  ///< one per inflight_ entry
  std::atomic<std::uint32_t> completions_{0};  ///< bumped per stamp
};

int host_procs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ip::context_options ctx_options(int nproc) {
  ip::context_options o;
  // The producer takes one of the nproc cores; one more is left free for
  // the completion watchers, which wake on every async completion.
  o.workers = static_cast<std::size_t>(std::max(1, nproc - 2));
  // One lock stripe: eviction is then one global LRU order, independent of
  // where address-space randomization puts the type tags the shard hash
  // reads (with eight stripes the miss pattern changed from run to run).
  o.cache_shards = 1;
  return o;
}

/// Runs every key once as a synchronous context call, so no worker
/// wake-up lands in the timing; returns the summed library-call time
/// (the fills and checks between calls are excluded).
double setup_round(ip::transpose_context& ctx,
                   const std::vector<cat_key>& cat, report& r) {
  std::uint64_t max_elems = 0;
  for (const auto& k : cat) {
    max_elems = std::max(max_elems, k.elements);
  }
  std::vector<std::uint64_t> buf(max_elems + 8);
  auto* b32 = reinterpret_cast<std::uint32_t*>(buf.data());
  double t = 0;
  for (const auto& k : cat) {
    if (k.elem == 4) {
      fill_iota(b32, k.elements);
      t += time_call([&] { call_sync(ctx, b32, k); });
      r.count(check_key(b32, k));
    } else {
      fill_iota(buf.data(), k.elements);
      t += time_call([&] { call_sync(ctx, buf.data(), k); });
      r.count(check_key(buf.data(), k));
    }
  }
  return t;
}

/// setup_round on a thread of its own.  On a shared host a thread's speed
/// depends on the core it runs on and a thread keeps its core, so rounds
/// on one thread measured 3.7 or 5.5 ms from run to run; rounds on fresh
/// threads land on different cores and their median holds still.
double setup_round_on_new_thread(ip::transpose_context& ctx,
                                 const std::vector<cat_key>& cat, report& r) {
  double t = 0;
  std::thread th([&] { t = setup_round(ctx, cat, r); });
  th.join();
  return t;
}

/// Closed-loop traffic for at least `seconds` and at least `min_samples`
/// completed requests; returns the wall time.
double run_traffic(ip::transpose_context& ctx, traffic& tr, double seconds,
                   std::size_t min_samples, report& r,
                   std::vector<sample>& out, span_counter* spans) {
  const auto t0 = bench_clock::now();
  const std::size_t base = out.size();
  while (secs(t0, bench_clock::now()) < seconds ||
         out.size() - base < min_samples) {
    for (int i = 0; i < 64; ++i) {
      tr.issue(ctx, tr.draw(), r, out, spans);
    }
  }
  tr.drain(r, out, spans);
  return secs(t0, bench_clock::now());
}

/// Median warm synchronous service time per key, in seconds.
std::vector<double> service_times(ip::transpose_context& ctx,
                                  const std::vector<cat_key>& cat,
                                  std::vector<std::uint64_t>& buf, int reps) {
  std::vector<double> svc(cat.size());
  for (std::size_t k = 0; k < cat.size(); ++k) {
    std::vector<double> t;
    for (int rep = 0; rep <= reps; ++rep) {
      const double s = time_call([&] {
        if (cat[k].elem == 4) {
          auto* a = reinterpret_cast<std::uint32_t*>(buf.data());
          call_sync(ctx, a, cat[k]);
        } else {
          call_sync(ctx, buf.data(), cat[k]);
        }
      });
      if (rep > 0) {
        t.push_back(s);
      }
    }
    svc[k] = median(t);
  }
  return svc;
}

void add_sched_metrics(report& r, const std::vector<cat_key>& cat,
                       const std::vector<sample>& samples,
                       const std::vector<double>& svc,
                       const ip::context_stats& st) {
  std::vector<double> wait;
  for (const auto& s : samples) {
    if (cat[s.key].async()) {
      wait.push_back((s.seconds - svc[s.key]) * 1e6);
    }
  }
  const auto p99 = tail_quantile(wait, 0.99);
  r.add("sched.queue_wait_p50_us", median(wait), "us");
  r.add("sched.queue_wait_p99_us", p99 ? *p99 : 0.0, "us");
  double settled = 0;
  double enqueued = 0;
  for (const auto& q : st.qos) {
    settled += static_cast<double>(q.settled());
    enqueued += static_cast<double>(q.enqueued);
  }
  r.add("sched.settled_ratio", enqueued > 0 ? settled / enqueued : 0.0,
        "ratio");
}

void add_context_metrics(report& r, ip::transpose_context& ctx) {
  const ip::context_stats st = ctx.stats();
  const double plans = static_cast<double>(st.plan_hits + st.plan_misses);
  const double arenas =
      static_cast<double>(st.arenas_reused + st.arenas_created);
  r.add("context.hit_ratio", static_cast<double>(st.plan_hits) / plans,
        "ratio");
  r.add("context.arena_reuse_ratio",
        static_cast<double>(st.arenas_reused) / arenas, "ratio");
  r.add("context.evictions", static_cast<double>(st.plan_evictions), "count");
  r.add("context.arenas_dropped", static_cast<double>(st.arenas_dropped),
        "count");
  r.add("context.cached_mib",
        static_cast<double>(ctx.cached_bytes()) / (1024.0 * 1024.0), "MiB");
}

/// tensor_plan, tensor_nd, perm_plan, perm_engine and front_end layers on
/// the catalogue, plus probe_2d over its 2-D keys into `acc`.
void catalogue_probes(const std::vector<cat_key>& cat, report& r,
                      layer_acc& acc) {
  std::uint64_t max_elems = 0;
  for (const auto& k : cat) {
    max_elems = std::max(max_elems, k.elements);
  }
  std::vector<std::uint64_t> buf(max_elems + 8);
  auto* b32 = reinterpret_cast<std::uint32_t*>(buf.data());
  auto* b64 = buf.data();

  std::vector<double> fe;
  std::vector<double> search_us;
  double nd_bytes = 0;
  double nd_sec = 0;
  double nd_passes = 0;
  int nd_keys = 0;
  std::vector<double> classify_ns;
  double perm_bytes[3] = {};
  double perm_sec[3] = {};
  int verdict_ok = 0;
  int perm_keys = 0;
  const auto count = [&](bool ok) {
    ++acc.attempted;
    acc.failed += ok ? 0 : 1;
  };
  ip::transpose_context ctx;
  constexpr int reps = 20;
  for (const auto& k : cat) {
    switch (k.kind) {
      case req::transpose:
      case req::aos_soa:
        if (k.elem == 4) {
          probe_2d(b32, k.rows, k.cols, reps, acc);
          fe.push_back(front_end_us(ctx, b32, k.rows, k.cols, 10 * reps));
        } else {
          probe_2d(b64, k.rows, k.cols, reps, acc);
          fe.push_back(front_end_us(ctx, b64, k.rows, k.cols, 10 * reps));
        }
        break;
      case req::permute_nd: {
        const ip::detail::nd_normalized norm = ip::detail::normalize_nd(
            std::span<const std::size_t>(k.dims), std::span<const int>(k.perm));
        ip::detail::tensor_plan plan;
        search_us.push_back(1e6 / reps * time_call([&] {
                              for (int i = 0; i < reps; ++i) {
                                plan = ip::detail::make_tensor_plan(norm, k.elem);
                              }
                            }));
        const auto run = [&](auto* a) {
          ip::nd_transposer<std::remove_pointer_t<decltype(a)>> nd(plan,
                                                                   one_thread());
          for (int rep = 0; rep <= reps; ++rep) {
            fill_iota(a, k.elements);
            const double s = time_call([&] { nd.execute(a, true); });
            count(check_key(a, k));
            if (rep > 0) {
              nd_sec += s;
              nd_bytes += k.bytes();
            }
          }
        };
        if (k.elem == 4) {
          run(b32);
        } else {
          run(b64);
        }
        nd_passes += static_cast<double>(plan.passes.size());
        ++nd_keys;
        break;
      }
      case req::permute: {
        const int slot = k.intended == ip::perm_kind::bit_reversal ? 0
                         : k.intended == ip::perm_kind::rotation   ? 1
                                                                   : 2;
        const auto run = [&](auto* a, const auto& pi) {
          using I = typename std::decay_t<decltype(pi)>::value_type;
          const std::span<const I> sp(pi);
          ip::perm_plan plan;
          classify_ns.push_back(
              1e9 / reps / static_cast<double>(k.elements) * time_call([&] {
                for (int i = 0; i < reps; ++i) {
                  plan = ip::make_perm_plan(sp, false, one_thread(), k.elem);
                }
              }));
          verdict_ok += plan.kind == k.intended ? 1 : 0;
          ip::permuter<std::remove_pointer_t<decltype(a)>> pe(plan,
                                                              one_thread(), a);
          for (int rep = 0; rep <= reps; ++rep) {
            fill_iota(a, k.elements);
            const double s = time_call([&] { pe.execute(a, sp, true); });
            count(check_key(a, k));
            if (rep > 0) {
              perm_sec[slot] += s;
              perm_bytes[slot] += k.bytes();
            }
          }
        };
        if (k.elem == 4) {
          k.index_width == 4 ? run(b32, k.pi32) : run(b32, k.pi64);
        } else {
          k.index_width == 4 ? run(b64, k.pi32) : run(b64, k.pi64);
        }
        ++perm_keys;
        break;
      }
    }
  }
  r.add("context.front_end_us", median(fe), "us");
  r.add("tensor_plan.search_us", median(search_us), "us");
  r.add("tensor_nd.exec_gbps", nd_bytes / nd_sec / 1e9, "GB/s");
  r.add("tensor_nd.passes_per_call", nd_passes / nd_keys, "count");
  r.add("perm_plan.classify_ns_per_elem", median(classify_ns), "ns");
  r.add("perm_engine.bitrev_gbps", perm_bytes[0] / perm_sec[0] / 1e9, "GB/s");
  r.add("perm_engine.rotation_gbps", perm_bytes[1] / perm_sec[1] / 1e9,
        "GB/s");
  r.add("perm_engine.generic_gbps", perm_bytes[2] / perm_sec[2] / 1e9,
        "GB/s");
  r.add("perm_engine.verdict_match",
        static_cast<double>(verdict_ok) / perm_keys, "ratio");
}

/// Traffic plus the service-time measurement the sched metrics need.
struct sched_run {
  std::vector<sample> plain;
  std::vector<sample> traced;
  double plain_wall = 0;
  double traced_wall = 0;
  std::uint64_t traced_spans = 0;
  double async_share = 0;
  std::vector<double> svc;
};

sched_run traced_traffic(ip::transpose_context& ctx,
                         const std::vector<cat_key>& cat, std::uint64_t seed,
                         double seconds, report& r) {
  traffic tr(cat, seed, static_cast<std::size_t>(host_procs()));
  setup_round(ctx, cat, r);
  sched_run s;
  std::uint64_t max_elems = 0;
  for (const auto& k : cat) {
    max_elems = std::max(max_elems, k.elements);
  }
  std::vector<std::uint64_t> buf(max_elems + 8);
  s.svc = service_times(ctx, cat, buf, 5);
  span_counter spans;
  s.plain_wall = run_traffic(ctx, tr, seconds / 2, 1000, r, s.plain, nullptr);
  s.traced_wall = run_traffic(ctx, tr, seconds / 2, 1000, r, s.traced, &spans);
  s.traced_spans = spans.spans;
  s.async_share = static_cast<double>(tr.issued_async()) /
                  static_cast<double>(tr.issued());
  return s;
}

}  // namespace

double calibration_probe_ms() {
  return 1e3 * time_call([] { (void)ip::detail::tensor_calibration(); });
}

void catalogue_layers(std::uint64_t seed, double seconds, report& r,
                      layer_acc& side) {
  const std::vector<cat_key> cat = make_catalogue(seed);
  ip::transpose_context ctx(ctx_options(host_procs()));
  const sched_run s = traced_traffic(ctx, cat, seed, seconds, r);
  std::vector<sample> all = s.plain;
  all.insert(all.end(), s.traced.begin(), s.traced.end());
  add_sched_metrics(r, cat, all, s.svc, ctx.stats());
  catalogue_probes(cat, r, side);
}

void run_mixed(const run_args& args, report& r) {
  const int nproc = host_procs();
  const std::vector<cat_key> cat = make_catalogue(args.seed);
  roof rf;
  double async_share = 0;
  if (!args.trace) {
    traffic tr(cat, args.seed, static_cast<std::size_t>(nproc));
    // Setup: the first round runs before anything else in the process and
    // pays the startup probes; its context carries on into the measured
    // traffic.  Twenty more rounds on fresh contexts follow the
    // traffic, and setup_s is the median of all 21.
    auto ctx = std::make_unique<ip::transpose_context>(ctx_options(nproc));
    std::vector<double> setups = {setup_round_on_new_thread(*ctx, cat, r)};
    std::vector<sample> samples;
    const auto t_start = bench_clock::now();
    const double wall =
        run_traffic(*ctx, tr, args.seconds, 1000, r, samples, nullptr);
    async_share = static_cast<double>(tr.issued_async()) /
                  static_cast<double>(tr.issued());
    ctx.reset();
    for (int round = 1; round < 21; ++round) {
      ip::transpose_context fresh(ctx_options(nproc));
      setups.push_back(setup_round_on_new_thread(fresh, cat, r));
    }
    const double rss = peak_rss_mib();

    // Every metric is the median over the whole one-second windows of
    // completions, so a stall on the shared host moves one window, not the
    // run.
    std::vector<std::vector<const sample*>> windows(
        std::max<std::size_t>(1, static_cast<std::size_t>(wall)));
    for (const auto& s : samples) {
      const auto w = static_cast<std::size_t>(secs(t_start, s.done));
      if (w < windows.size()) {
        windows[w].push_back(&s);
      }
    }
    std::vector<double> w_gbps;
    std::vector<double> w_worst;
    std::vector<double> w_rate;
    std::vector<double> w_p50;
    std::vector<double> w_p99;
    for (const auto& win : windows) {
      double bytes = 0;
      double time = 0;
      double kb[req_kinds] = {};
      double kt[req_kinds] = {};
      std::vector<double> lat;
      for (const sample* s : win) {
        const auto kind = static_cast<int>(cat[s->key].kind);
        bytes += cat[s->key].bytes();
        time += s->seconds;
        kb[kind] += cat[s->key].bytes();
        kt[kind] += s->seconds;
        lat.push_back(s->seconds * 1e3);
      }
      const auto p99 = tail_quantile(lat, 0.99);
      if (!p99 || std::find(kt, kt + req_kinds, 0.0) != kt + req_kinds) {
        continue;  // too few samples for the percentile rule
      }
      double worst = kb[0] / kt[0];
      for (int k = 1; k < req_kinds; ++k) {
        worst = std::min(worst, kb[k] / kt[k]);
      }
      w_gbps.push_back(bytes / time / 1e9);
      w_worst.push_back(worst / 1e9);
      w_rate.push_back(static_cast<double>(win.size()));
      w_p50.push_back(median(lat));
      w_p99.push_back(*p99);
    }
    if (w_p99.empty()) {
      r.correct = false;
    }
    r.add("gbps", median(w_gbps), "GB/s");
    r.add("gbps_worst", median(w_worst), "GB/s");
    r.add("ops_per_s", median(w_rate), "1/s");
    r.add("p50_ms", median(w_p50), "ms");
    r.add("p99_ms", median(w_p99), "ms");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mib", rss, "MiB");
    // The roof needs a buffer of at least 4 x L3, allocated only after
    // the peak-RSS reading.
    big_buffer roof_buf(std::size_t{1250} << 20);
    rf = measure_roof(roof_buf.data(), roof_buf.bytes());
  } else {
    const double calib_ms = calibration_probe_ms();
    ip::transpose_context ctx(ctx_options(nproc));
    const sched_run s = traced_traffic(ctx, cat, args.seed, args.seconds, r);
    std::vector<sample> all = s.plain;
    all.insert(all.end(), s.traced.begin(), s.traced.end());
    add_sched_metrics(r, cat, all, s.svc, ctx.stats());
    add_context_metrics(r, ctx);
    layer_acc acc;
    catalogue_probes(cat, r, acc);
    r.attempted += acc.attempted;
    r.failed += acc.failed;
    r.correct = r.failed == 0;
    {
      big_buffer roof_buf(std::size_t{1250} << 20);
      rf = measure_roof(roof_buf.data(), roof_buf.bytes());
    }
    add_engine_metrics(r, acc, acc, rf);
    r.add("tensor_plan.calibration_ms", calib_ms, "ms");
    const double plain_rate =
        static_cast<double>(s.plain.size()) / s.plain_wall;
    const double traced_rate =
        static_cast<double>(s.traced_spans) / s.traced_wall;
    r.add("trace.overhead_frac", plain_rate / traced_rate - 1.0, "ratio");
    async_share = s.async_share;
  }

  json::array keys;
  for (const auto& k : cat) {
    if (k.async()) {
      keys.push_back(key_stamp(k.rows, k.cols, k.elem));
    }
  }
  std::printf("%s\n", config_stamp(args, rf, std::move(keys),
                                   {{"async_share", async_share}})
                          .c_str());
}

}  // namespace perfbench
