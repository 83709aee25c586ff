#pragma once
// Reusable execution context: plan/workspace caching with async batched
// submission.
//
// Every one-shot `inplace::transpose` pays the amortizable setup cost on
// the hot path — planning, a fresh scratch arena (threads x O(max(m, n))
// elements for the blocked engine), the strength-reduced reciprocals, and
// row-permutation cycle discovery.  `transpose_context` amortizes all of
// it across calls:
//
//   * an LRU plan cache keyed by (rows, cols, elem_size, element type,
//     entry point/order, and every planning-relevant option): one mutex,
//     one recency list and one key map, so at most
//     context_options::max_plans plans are cached at any time.  The byte
//     budget (max_cached_bytes) is settled by atomic reservation against
//     retained_bytes_;
//   * per-plan reusable arenas — `transposer<T>` instances holding the
//     resolved plan, the index math, the workspace pool and the memoized
//     cycle leaders — checked out exclusively per execution, so the warm
//     path performs zero allocations and zero cycle re-discovery;
//   * an async submission API: `submit()` returns a std::future<void>,
//     optionally scheduled with job_options{qos, deadline} (see
//     core/sched.hpp); `transpose_batch()` runs a span of jobs over one
//     shared QoS-aware worker pool with per-job error capture.
//
// The free functions in core/transpose.hpp route through a process-wide
// `default_context()`, so plain `transpose(data, m, n)` callers get warm
// plan reuse without managing a context.  All entry points are
// thread-safe; concurrent same-shape calls each receive their own arena.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/executor.hpp"
#include "core/failpoint.hpp"
#include "core/perm_engine.hpp"
#include "core/sched.hpp"
#include "core/tensor_nd.hpp"
#include "util/annotated_mutex.hpp"

namespace inplace {

/// Sizing knobs for a transpose_context.
struct context_options {
  /// Distinct cached plans (LRU beyond this).  Clamped to at least 1.
  std::size_t max_plans = 16;

  /// Arenas kept per plan.  Concurrent same-shape executions past this
  /// count still run (with a transient arena); only recycling is bounded.
  std::size_t max_arenas_per_plan = 4;

  /// Total bytes of scratch the context may pin across all cached arenas
  /// (approximate; Theorem 6 scratch plus memoized cycle leaders).  An
  /// arena whose return would exceed the budget is dropped instead of
  /// recycled.  Settled by atomic reservation.
  std::size_t max_cached_bytes = std::size_t{256} << 20;

  /// Ignored: the plan cache has one lock.  The field remains only so
  /// existing callers that set it still compile; deleting it waits for a
  /// change to the benchmark, which sets it (perfbench/mixed.cpp).
  std::size_t cache_shards = 1;

  /// Worker threads for submit()/transpose_batch(); 0 picks a small
  /// default.  Workers start lazily on the first async call — a context
  /// used synchronously never spawns threads.
  std::size_t workers = 0;

  /// Bounded-queue backpressure for the async entry points: submit()
  /// blocks while this many jobs are already queued (clamped to at least
  /// 1).  Keeps a producer that outruns the workers from growing the
  /// queue — and the set of outstanding futures — without bound.
  std::size_t max_queue = 1024;
};

/// Monotonic counters describing a context's cache behavior.
struct context_stats {
  std::uint64_t executions = 0;      ///< transposes run through the context
  std::uint64_t plan_hits = 0;       ///< key already cached
  std::uint64_t plan_misses = 0;     ///< key planned fresh
  std::uint64_t plan_evictions = 0;  ///< LRU entries dropped
  std::uint64_t arenas_created = 0;  ///< transposer arenas allocated
  std::uint64_t arenas_reused = 0;   ///< warm checkouts (no allocation)
  std::uint64_t arenas_dropped = 0;  ///< not recycled (cap or exception)
  std::uint64_t async_jobs = 0;      ///< submit()/batch jobs enqueued
  /// Arenas whose scratch acquisition landed below scratch_rung::full
  /// (the OOM degradation ladder engaged while building them).
  std::uint64_t arenas_degraded = 0;
  /// Async jobs failed with context_shutdown before they ran (shutdown
  /// with drain_pending=false, or cancel_pending()).
  std::uint64_t jobs_cancelled = 0;

  /// Per-QoS-class scheduling counters, indexed by qos_index().  The
  /// snapshot is coherent for the monotonic invariant: for every class,
  /// qos[k].settled() <= qos[k].enqueued at the moment of the read (see
  /// detail::context_workers::qos_stats for the memory-order proof).
  std::array<qos_counters, qos_class_count> qos{};
};

/// One matrix in a transpose_batch() call.
template <typename T>
struct transpose_job {
  T* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  storage_order order = storage_order::row_major;
  options opts{};
  job_options sched{};  ///< QoS class + optional deadline for this job
};

/// Per-job outcome of transpose_batch(): errors[k] is the exception (if
/// any) job k threw; the batch always runs every job.
struct batch_result {
  std::vector<std::exception_ptr> errors;
  std::size_t failed = 0;

  [[nodiscard]] bool ok() const { return failed == 0; }

  /// Rethrows the first captured error, if any.
  void rethrow_first() const {
    for (const auto& e : errors) {
      if (e) {
        std::rethrow_exception(e);
      }
    }
  }
};

namespace detail {

/// Identity of one cached (plan, arena family): the shape, the element
/// type, the entry point, and every option the planner reads.  Two keys
/// comparing equal guarantee the cached transposer<T> is exactly the one
/// the call would have built.
struct context_key {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::size_t elem_size = 0;
  const void* type_tag = nullptr;  ///< &context_type_tag<T>
  std::uint8_t mode = 0;  ///< 0 transpose, 1 c2r, 2 r2c, 3 permute_nd, 4 permute
  std::uint8_t order = 0;          ///< storage_order (transpose mode only)
  std::uint8_t alg = 0;            ///< options::algorithm
  std::uint8_t engine = 0;         ///< engine_kind
  std::uint8_t kernel = 0;         ///< kernels::tier (requested, pre-resolve)
  std::uint8_t tile = 0;           ///< options::tile_mode
  int threads = 0;
  std::size_t block_bytes = 0;

  /// permute_nd identity (zero elsewhere): the *normalized* extents and
  /// permutation (unit axes dropped, contiguous groups fused), so every
  /// raw shape that reduces to the same residual problem shares one plan.
  /// rank <= tensor_max_rank packs the perm inline as 4-bit nibbles.
  /// permute reuses them: nd_perm holds the classifier's perm_kind and
  /// nd_dims[0, nd_rank) its parameters or the content fingerprint.
  std::array<std::uint64_t, tensor_max_rank> nd_dims{};
  std::uint32_t nd_perm = 0;
  std::uint8_t nd_rank = 0;

  friend bool operator==(const context_key&, const context_key&) = default;
};

struct context_key_hash {
  std::size_t operator()(const context_key& k) const noexcept;
};

/// One inline variable per element type: its address is the program-wide
/// unique type tag for context keys (elem_size alone cannot distinguish
/// float from int32_t, whose workspaces are distinct template types).
template <typename T>
inline constexpr char context_type_tag = 0;

/// A context_key with the fields every mode shares: the element type,
/// the entry point, and every option the planners read.  Each mode fills
/// its own identity (shape, order, normalized axes, content fingerprint)
/// at its call site.
template <typename T>
[[nodiscard]] context_key make_context_key(std::uint8_t mode,
                                           const options& opts) {
  context_key key;
  key.elem_size = sizeof(T);
  key.type_tag = &context_type_tag<T>;
  key.mode = mode;
  key.alg = static_cast<std::uint8_t>(opts.alg);
  key.engine = static_cast<std::uint8_t>(opts.engine);
  key.kernel = static_cast<std::uint8_t>(opts.kernel);
  key.tile = static_cast<std::uint8_t>(opts.tile);
  key.threads = opts.threads;
  key.block_bytes = opts.block_bytes;
  return key;
}

/// One plan-cache slot: a lock-protected free list of type-erased arenas
/// (transposer<T> instances — the key's type_tag pins T) plus their
/// approximate retained bytes.
struct context_entry {
  util::annotated_mutex mu;
  /// Set at eviction; blocks further recycling.
  bool evicted INPLACE_GUARDED_BY(mu) = false;
  std::vector<std::pair<std::shared_ptr<void>, std::size_t>> arenas
      INPLACE_GUARDED_BY(mu);
};

/// One node of the plan cache's LRU list.
struct context_lru_node {
  context_key key;
  std::shared_ptr<context_entry> entry;
};
using context_lru_iter = std::list<context_lru_node>::iterator;

}  // namespace detail

/// Thread-safe reusable execution context (see the header comment).
class transpose_context {
 public:
  explicit transpose_context(const context_options& copts = {});
  ~transpose_context();
  transpose_context(const transpose_context&) = delete;
  transpose_context& operator=(const transpose_context&) = delete;

  /// Equivalent to inplace::transpose(data, rows, cols, order, opts),
  /// with plan/arena reuse across same-shape calls.
  template <typename T>
  void transpose(T* data, std::size_t rows, std::size_t cols,
                 storage_order order = storage_order::row_major,
                 const options& opts = {}) {
    run(data, rows, cols, static_cast<std::uint8_t>(order), opts,
        mode_transpose);
  }

  /// The raw C2R permutation of an m x n row-major view (cached).
  template <typename T>
  void c2r(T* data, std::size_t m, std::size_t n, const options& opts = {}) {
    run(data, m, n, /*order_tag=*/0, opts, mode_c2r);
  }

  /// The raw R2C permutation — the inverse of c2r (cached).
  template <typename T>
  void r2c(T* data, std::size_t m, std::size_t n, const options& opts = {}) {
    run(data, m, n, /*order_tag=*/0, opts, mode_r2c);
  }

  /// In-place axis permutation of a rank-N row-major tensor: output axis
  /// k takes input axis perm[k] (the permute3 convention, any rank up to
  /// tensor_max_rank).  The permutation is normalized (unit extents
  /// dropped, contiguous axis groups fused), decomposed into
  /// batched/flat 2-D transpositions and chunk-grid passes by a
  /// cost-model search (core/tensor_plan.hpp), and the resolved
  /// nd_transposer arena is cached under the normalized key — repeated
  /// permutations of the same residual problem run the warm path with
  /// zero planning and zero allocation.  Every path records telemetry,
  /// including the empty and identity early returns.
  template <typename T>
  void permute_nd(T* data, std::span<const std::size_t> dims,
                  std::span<const int> perm, const options& opts = {}) {
    detail::validate_nd_perm(dims, perm);
    const std::size_t total =
        detail::checked_extent_nd(data, dims.data(), dims.size(), sizeof(T));
    if (total == 0) {
      detail::note_tensor_record<T>(0, dims.size(), 0, false,
                                    scratch_rung::full, "empty");
      const telemetry::span span_total{telemetry::stage::total, 0, 0};
      return;
    }
    const detail::nd_normalized norm = detail::normalize_nd(dims, perm);
    if (norm.rank <= 1) {
      // Identity on memory: nothing moves, but the call still records —
      // the degenerate-shape telemetry contract the 2-D executor keeps.
      detail::note_tensor_record<T>(norm.total, dims.size(), 0, false,
                                    scratch_rung::full, "identity");
      const telemetry::span span_total{telemetry::stage::total,
                                       2 * norm.total * sizeof(T), 0};
      return;
    }

    detail::context_key key =
        detail::make_context_key<T>(mode_permute_nd, opts);
    key.nd_rank = static_cast<std::uint8_t>(norm.rank);
    for (std::size_t k = 0; k < norm.rank; ++k) {
      key.nd_dims[k] = norm.dims[k];
    }
    key.nd_perm = detail::pack_nd_perm(norm);

    run_cached<nd_transposer<T>>(data, key, [&] {
      return new nd_transposer<T>(detail::make_tensor_plan(norm, sizeof(T)),
                                  opts);
    });
  }

  /// In-place application of an arbitrary index permutation to an
  /// n-element buffer: the gather data[i] <- old data[pi[i]], or with
  /// `inverse` the scatter data[pi[i]] <- old data[i].  The plan-time
  /// classifier (core/perm_plan.hpp) maps pi onto the cheapest executor
  /// the library owns — rotation juggling, the COBRA bit-reversal
  /// kernel, the 2-D transpose engines for i*a mod (n-1) perms, or the
  /// memoized generic cycle-leader scan — and the resolved permuter<T>
  /// arena is cached under (n, direction, verdict, and the verdict's
  /// exact parameters or, for generic, the content fingerprint), so
  /// repeated applications of one permutation skip scratch allocation
  /// and cycle discovery.  Every path records telemetry, including the
  /// empty and identity early returns.
  template <typename T, typename I>
  void permute(T* data, std::span<const I> pi, bool inverse = false,
               const options& opts = {}) {
    static_assert(std::is_integral_v<I>, "permutation indices are integers");
    const std::size_t n = pi.size();
    if (data == nullptr && n != 0) {
      throw error("inplace: null data with a nonzero-length permutation");
    }
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw error("inplace: permutation byte extent overflows size_t (" +
                  std::to_string(n) + " elements of " +
                  std::to_string(sizeof(T)) + " bytes)");
    }
    const perm_plan plan = make_perm_plan<I>(pi, inverse, opts, sizeof(T));
    if (plan.n <= 1 || plan.kind == perm_kind::identity) {
      // Still an execution (the degenerate-shape telemetry contract),
      // but never cached — an identity arena holds nothing worth
      // pinning.
      detail::note_perm_record<T>(plan, 0, false);
      const telemetry::span span_total{telemetry::stage::total,
                                       2 * plan.n * sizeof(T), 0};
      return;
    }

    detail::context_key key = detail::make_context_key<T>(mode_permute, opts);
    key.rows = n;
    key.order = inverse ? 1 : 0;
    // The classifier's verdict picks the arena family.  The structured
    // kinds are keyed by their exact parameters, which determine the
    // permutation; a generic permutation is keyed by its content
    // fingerprint, so two permutations of one length rarely share an
    // arena — and when they do, the arena's exact match against the pi
    // it memoized refuses the stranger.  The index type is deliberately
    // not part of the key: execute accepts any integral I.
    key.nd_perm = static_cast<std::uint32_t>(plan.kind);
    switch (plan.kind) {
      case perm_kind::rotation:
        key.nd_dims[0] = plan.rot_k;
        key.nd_rank = 1;
        break;
      case perm_kind::bit_reversal:
        key.nd_dims[0] = plan.log2n;
        key.nd_rank = 1;
        break;
      case perm_kind::transpose2d:
        key.nd_dims[0] = plan.t2d_rows;
        key.nd_dims[1] = plan.t2d_cols;
        key.nd_rank = 2;
        break;
      default:
        key.nd_dims[0] = plan.fingerprint_lo;
        key.nd_dims[1] = plan.fingerprint_hi;
        key.nd_rank = 2;
        break;
    }

    run_cached<permuter<T>>(
        key, [&] { return new permuter<T>(plan, opts, data); },
        [data, pi](permuter<T>& p, bool warm) { p.execute(data, pi, warm); });
  }

  /// Asynchronous transpose: enqueues the job on the context's worker
  /// pool and returns a future that completes (or carries the exception)
  /// when the transposition finishes.  The buffer must stay alive and
  /// unaliased until then.
  ///
  /// Lifecycle guarantees: blocks while context_options::max_queue jobs
  /// are already pending (backpressure); throws context_shutdown — with
  /// the job never queued and the buffer untouched — once shutdown()
  /// ran or the context is being destroyed, and queue_overflow for a
  /// worker-thread re-entrant submit against a full queue (which would
  /// otherwise deadlock).  Every future this returns is eventually
  /// satisfied: with a value, the job's own exception, deadline_exceeded
  /// if its job_options deadline lapsed before pickup, or
  /// context_shutdown if the context went down before the job started.
  template <typename T>
  [[nodiscard]] std::future<void> submit(
      T* data, std::size_t rows, std::size_t cols,
      storage_order order = storage_order::row_major,
      const options& opts = {}) {
    return submit(data, rows, cols, order, opts, job_options{});
  }

  /// submit() with explicit scheduling: a QoS class (interactive jobs
  /// overtake queued standard/batch work) and an optional absolute
  /// deadline.  A job whose deadline passes before a worker picks it up
  /// settles its future with deadline_exceeded without running.
  template <typename T>
  [[nodiscard]] std::future<void> submit(T* data, std::size_t rows,
                                         std::size_t cols,
                                         storage_order order,
                                         const options& opts,
                                         const job_options& sched) {
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> fut = done->get_future();
    detail::context_workers::job body =
        [this, done, data, rows, cols, order, opts](
            std::exception_ptr abort) {
          if (abort) {
            done->set_exception(abort);
            return;
          }
          try {
            this->transpose(data, rows, cols, order, opts);
            done->set_value();
          } catch (...) {
            done->set_exception(std::current_exception());
          }
        };
    // Counted before the enqueue and rolled back if it throws: with the
    // old count-after-enqueue ordering a fast worker could settle the
    // job before it was counted, so a concurrent stats() snapshot saw
    // settled counters ahead of async_jobs (torn read).  On throw the
    // closure — and with it the promise — is discarded along with
    // `fut`, which submit's caller never receives.
    async_jobs_.fetch_add(1, std::memory_order_relaxed);
    try {
      workers().enqueue(std::move(body), sched);
    } catch (...) {
      async_jobs_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    return fut;
  }

  /// Runs every job over the shared worker pool, blocking until all
  /// complete.  Failures are captured per job (never thrown): jobs after
  /// a failing one still run.  Each job's `sched` options apply — the
  /// pool runs higher-QoS jobs first regardless of span order.
  template <typename T>
  batch_result transpose_batch(std::span<const transpose_job<T>> jobs) {
    batch_result res;
    res.errors.assign(jobs.size(), std::exception_ptr{});
    std::vector<std::future<void>> futs;
    futs.reserve(jobs.size());
    for (const auto& job : jobs) {
      futs.push_back(submit(job.data, job.rows, job.cols, job.order,
                            job.opts, job.sched));
    }
    for (std::size_t k = 0; k < futs.size(); ++k) {
      try {
        futs[k].get();
      } catch (...) {
        res.errors[k] = std::current_exception();
        ++res.failed;
      }
    }
    return res;
  }

  /// Snapshot of the cache and scheduling counters.  Coherent for the
  /// monotonic per-class invariant settled() <= enqueued (the settle
  /// side is read before the enqueue side, against release stores).
  [[nodiscard]] context_stats stats() const;

  /// Currently cached plan count / approximate pinned arena bytes.
  [[nodiscard]] std::size_t cached_plans() const;
  [[nodiscard]] std::size_t cached_bytes() const;

  /// Drops every cached plan and arena (in-flight executions finish on
  /// the arenas they hold).  Counters are not reset.
  void clear();

  /// Stops the async machinery deterministically: no further submit()
  /// succeeds (context_shutdown), in-flight jobs finish, and
  /// queued-but-unstarted jobs either run (drain_pending=true) or fail
  /// their futures with context_shutdown (default).  Either way every
  /// outstanding future is satisfied when this returns.  Idempotent;
  /// the destructor calls shutdown(false) implicitly.  Synchronous
  /// entry points (transpose/c2r/r2c) keep working after shutdown.
  void shutdown(bool drain_pending = false);

  /// Fails every queued-but-unstarted async job with context_shutdown,
  /// without shutting the context down (later submits still work).
  /// In-flight jobs are not interrupted.  Returns how many were failed.
  std::size_t cancel_pending();

 private:
  static constexpr std::uint8_t mode_transpose = 0;
  static constexpr std::uint8_t mode_c2r = 1;
  static constexpr std::uint8_t mode_r2c = 2;
  static constexpr std::uint8_t mode_permute_nd = 3;
  static constexpr std::uint8_t mode_permute = 4;

  /// Finds (LRU-touching) or inserts the entry for `key`, evicting from
  /// the LRU tail past max_plans.  Sets `hit` iff the key was already
  /// cached.
  std::shared_ptr<detail::context_entry> acquire_entry(
      const detail::context_key& key, bool& hit) INPLACE_EXCLUDES(cache_mu_);

  /// Drops one LRU node and its stored arenas.
  void evict_locked(detail::context_lru_iter it) INPLACE_REQUIRES(cache_mu_);

  /// Lazily started worker pool for the async entry points.
  detail::context_workers& workers() INPLACE_EXCLUDES(workers_mu_);

  /// The single audited checkout/execute/recycle path every cached entry
  /// point shares.  `Arena` is the per-plan executor type (transposer<T>
  /// for the 2-D modes, nd_transposer<T> for permute_nd, permuter<T> for
  /// permute) and must provide cached_bytes() and degraded(); `make`
  /// builds a fresh heap-allocated arena on a cache miss, and `run`
  /// invokes the arena's execution entry with the warm/cold provenance
  /// flag (entry points whose execute takes extra arguments — permute's
  /// index span — bind them in the closure).  All counter and
  /// byte-budget semantics (reservation-settled recycling, the
  /// drop-on-exception rule, degradation accounting) live here once.
  template <typename Arena, typename Make, typename Run>
  void run_cached(const detail::context_key& key, Make&& make, Run&& run) {
    bool hit = false;
    std::shared_ptr<detail::context_entry> entry = acquire_entry(key, hit);

    // Check out an arena; `warm` means this execution skips allocation
    // and cycle discovery entirely.
    std::shared_ptr<void> arena;
    std::size_t arena_bytes = 0;
    {
      util::mutex_guard lock(entry->mu);
      if (!entry->arenas.empty()) {
        arena = std::move(entry->arenas.back().first);
        arena_bytes = entry->arenas.back().second;
        entry->arenas.pop_back();
      }
    }
    const bool warm = arena != nullptr;
    if (warm) {
      retained_bytes_.fetch_sub(arena_bytes, std::memory_order_relaxed);
      arenas_reused_.fetch_add(1, std::memory_order_relaxed);
    } else {
      arena = std::shared_ptr<void>(static_cast<void*>(make()), [](void* p) {
        delete static_cast<Arena*>(p);
      });
      arenas_created_.fetch_add(1, std::memory_order_relaxed);
      if (static_cast<Arena*>(arena.get())->degraded()) {
        // Scratch acquisition walked the OOM ladder while building this
        // arena — surface the pressure episode in the stats.
        arenas_degraded_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    auto* tr = static_cast<Arena*>(arena.get());

    executions_.fetch_add(1, std::memory_order_relaxed);
    try {
      run(*tr, /*from_cache=*/warm);
    } catch (...) {
      // The arena's memo/scratch state may be mid-update — drop it rather
      // than recycle a possibly inconsistent warm path.
      arenas_dropped_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }

    // Recycle within the per-plan and total-bytes budgets.  The byte
    // budget is settled by *reservation*: fetch_add first, check the
    // bound on the pre-reservation value, and roll the reservation back
    // if the arena is not recycled after all.  With the old
    // load-compare-add sequence two racing recycles on different
    // entries could both pass the check and overshoot the budget; a
    // reservation loses at most transiently (a doomed reservation can
    // make a neighbor drop, never overshoot).  The reservation also
    // happens before the arena becomes visible to eviction, preserving
    // the PR-5 underflow fix: evict_locked only ever subtracts bytes
    // that were added first.
    const std::size_t bytes = tr->cached_bytes();
    bool recycled = false;
    {
      util::mutex_guard lock(entry->mu);
      if (!entry->evicted && entry->arenas.size() < max_arenas_per_plan_) {
        const std::size_t prior =
            retained_bytes_.fetch_add(bytes, std::memory_order_relaxed);
        if (prior + bytes <= max_cached_bytes_) {
          entry->arenas.emplace_back(std::move(arena), bytes);
          recycled = true;
        } else {
          retained_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
        }
      }
    }
    if (!recycled) {
      arenas_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Convenience form for arenas with the plain execute(T*, bool
  /// from_cache) entry (the 2-D and tensor executors).
  template <typename Arena, typename T, typename Make>
  void run_cached(T* data, const detail::context_key& key, Make&& make) {
    run_cached<Arena>(key, std::forward<Make>(make),
                      [data](Arena& a, bool warm) { a.execute(data, warm); });
  }

  template <typename T>
  void run(T* data, std::size_t rows, std::size_t cols,
           std::uint8_t order_tag, const options& opts, std::uint8_t mode) {
    detail::checked_extent(data, rows, cols);

    detail::context_key key = detail::make_context_key<T>(mode, opts);
    key.rows = rows;
    key.cols = cols;
    key.order = order_tag;

    run_cached<transposer<T>>(data, key, [&] {
      const transpose_plan plan =
          mode == mode_transpose
              ? make_plan(data, rows, cols,
                          static_cast<storage_order>(order_tag), opts,
                          sizeof(T))
              : make_directed_plan(
                    data, rows, cols,
                    mode == mode_c2r ? direction::c2r : direction::r2c, opts,
                    sizeof(T));
      return new transposer<T>(plan);
    });
  }

  // Sizing knobs resolved at construction; const so no lock discipline
  // applies (the linter's guarded-by rule audits every non-exempt field
  // of a mutex-bearing class).
  const std::size_t max_plans_;
  const std::size_t max_arenas_per_plan_;
  const std::size_t max_cached_bytes_;
  const std::size_t worker_count_;
  const std::size_t max_queue_;

  /// The plan cache: recency order (front = most recent) and key index.
  mutable util::annotated_mutex cache_mu_;
  std::list<detail::context_lru_node> lru_ INPLACE_GUARDED_BY(cache_mu_);
  std::unordered_map<detail::context_key, detail::context_lru_iter,
                     detail::context_key_hash>
      map_ INPLACE_GUARDED_BY(cache_mu_);

  std::atomic<std::size_t> retained_bytes_{0};
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<std::uint64_t> plan_hits_{0};
  std::atomic<std::uint64_t> plan_misses_{0};
  std::atomic<std::uint64_t> plan_evictions_{0};
  std::atomic<std::uint64_t> arenas_created_{0};
  std::atomic<std::uint64_t> arenas_reused_{0};
  std::atomic<std::uint64_t> arenas_dropped_{0};
  std::atomic<std::uint64_t> async_jobs_{0};
  std::atomic<std::uint64_t> arenas_degraded_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};

  /// Guards lazy worker start and the shutdown flag (a mutex, not a
  /// once_flag: shutdown() must observe and stop a pool that a racing
  /// submit() is still creating).  The pool pointer is guarded; the pool
  /// *object* is internally synchronized, so shutdown()/cancel_pending()
  /// legitimately copy the raw pointer out and call it unlocked.
  mutable util::annotated_mutex workers_mu_;
  bool shutdown_ INPLACE_GUARDED_BY(workers_mu_) = false;
  std::unique_ptr<detail::context_workers> workers_
      INPLACE_GUARDED_BY(workers_mu_);
};

/// The process-wide context the free functions in core/transpose.hpp
/// execute through.  Shared by all threads; never destroyed before other
/// statics that might transpose during teardown.
transpose_context& default_context();

/// transpose_batch over the default context.
template <typename T>
batch_result transpose_batch(std::span<const transpose_job<T>> jobs) {
  return default_context().transpose_batch(jobs);
}

}  // namespace inplace
