// Tests for the reusable execution context (core/context.hpp): plan
// cache hit/miss/eviction accounting, warm-path correctness (memoized
// cycle replay must produce the same permutation as discovery), async
// submission and batch error capture, and a concurrent mixed-shape
// stress run over one shared context.  The Context suite name is matched
// by the TSan filter in tools/run_sanitizers.sh — the arena checkout,
// the LRU, and the worker pool must all be race-free.
//
// Also hosts the regression tests for this PR's concurrency bugfixes:
// workspace_pool growth past its construction hint (two threads must
// never alias one workspace) and the non-mutating thread-count probe.

#include "core/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "core/transpose.hpp"
#include "util/matrix.hpp"
#include "util/threads.hpp"

#if defined(INPLACE_HAVE_OPENMP)
#include <omp.h>
#endif

namespace {

using namespace inplace;

template <typename T>
void expect_transposed(const std::vector<T>& got, const std::vector<T>& src,
                       std::size_t rows, std::size_t cols, const char* what) {
  const std::vector<T> want =
      util::reference_transpose(std::span<const T>(src), rows, cols);
  const auto mismatch = util::first_mismatch(std::span<const T>(got),
                                             std::span<const T>(want));
  EXPECT_EQ(mismatch, -1) << what << ": first mismatch at " << mismatch;
}

/// Transposes rows x cols through `ctx` and verifies the result.
void roundtrip(transpose_context& ctx, std::size_t rows, std::size_t cols,
               const char* what, const options& opts = {}) {
  const auto src = util::iota_matrix<double>(rows, cols);
  auto buf = src;
  ctx.transpose(buf.data(), rows, cols, storage_order::row_major, opts);
  expect_transposed(buf, src, rows, cols, what);
}

TEST(Context, ColdAndWarmPathsAreCorrectAcrossEngines) {
  transpose_context ctx;
  // Each shape runs three times: cold (discovery) then twice warm (memo
  // replay) — a wrong memoized cycle list would corrupt the warm runs.
  const struct {
    std::size_t rows, cols;
    const char* what;
  } shapes[] = {
      {64, 48, "blocked, gcd > 1"},
      {97, 89, "blocked, coprime"},
      {4000, 8, "skinny"},
      {33, 77, "blocked, wide"},
      {1, 17, "degenerate row"},
      {17, 1, "degenerate column"},
  };
  for (const auto& s : shapes) {
    for (int rep = 0; rep < 3; ++rep) {
      roundtrip(ctx, s.rows, s.cols, s.what);
    }
  }
  // Forced engines share the cache without cross-talk (distinct keys).
  options ref;
  ref.engine = engine_kind::reference;
  roundtrip(ctx, 40, 25, "reference engine", ref);
  roundtrip(ctx, 40, 25, "reference engine warm", ref);
}

TEST(Context, RawPermutationsRoundTripWarm) {
  transpose_context ctx;
  const std::size_t m = 56;
  const std::size_t n = 40;
  const auto src = util::iota_matrix<float>(m, n);
  auto buf = src;
  for (int rep = 0; rep < 3; ++rep) {
    ctx.c2r(buf.data(), m, n);
    expect_transposed(buf, src, m, n, "context c2r");
    ctx.r2c(buf.data(), m, n);  // inverse restores the original
    EXPECT_EQ(util::first_mismatch(std::span<const float>(buf),
                                   std::span<const float>(src)),
              -1)
        << "r2c failed to invert c2r on rep " << rep;
  }
}

TEST(Context, HitMissAndArenaAccounting) {
  transpose_context ctx;
  auto a = util::iota_matrix<double>(30, 20);
  ctx.transpose(a.data(), 30, 20);
  auto s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 0u);
  EXPECT_EQ(s.arenas_created, 1u);
  EXPECT_EQ(s.arenas_reused, 0u);
  EXPECT_EQ(s.executions, 1u);

  ctx.transpose(a.data(), 30, 20);  // same shape: hit + arena reuse
  s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.arenas_created, 1u);
  EXPECT_EQ(s.arenas_reused, 1u);

  auto b = util::iota_matrix<double>(20, 30);
  ctx.transpose(b.data(), 20, 30);  // different shape: miss
  s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 2u);
  EXPECT_EQ(s.arenas_created, 2u);

  // Same shape, different element type: a distinct key (the cached
  // workspace is a different template instantiation).
  auto c = util::iota_matrix<float>(30, 20);
  ctx.transpose(c.data(), 30, 20);
  s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 3u);

  // Different options: also a distinct key.
  options untiled;
  untiled.tile = options::tile_mode::off;
  ctx.transpose(a.data(), 20, 30, storage_order::row_major, untiled);
  s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 4u);
  EXPECT_EQ(ctx.cached_plans(), 4u);
  EXPECT_GT(ctx.cached_bytes(), 0u);
}

TEST(Context, WarmPathPerformsNoSteadyStateAllocations) {
  transpose_context ctx;
  auto a = util::iota_matrix<double>(60, 36);
  ctx.transpose(a.data(), 60, 36);  // warmup: plan + arena + cycles
  const auto warm0 = ctx.stats();
  for (int rep = 0; rep < 20; ++rep) {
    ctx.transpose(a.data(), 60, 36);
  }
  const auto warm1 = ctx.stats();
  EXPECT_EQ(warm1.arenas_created - warm0.arenas_created, 0u);
  EXPECT_EQ(warm1.plan_misses - warm0.plan_misses, 0u);
  EXPECT_EQ(warm1.arenas_reused - warm0.arenas_reused, 20u);
  EXPECT_EQ(warm1.arenas_dropped - warm0.arenas_dropped, 0u);
}

TEST(Context, LruEvictionBoundsTheCache) {
  context_options copts;
  copts.max_plans = 2;
  transpose_context ctx(copts);
  auto a = util::iota_matrix<double>(24, 18);
  auto b = util::iota_matrix<double>(18, 24);
  auto c = util::iota_matrix<double>(12, 36);
  ctx.transpose(a.data(), 24, 18);
  ctx.transpose(b.data(), 18, 24);
  EXPECT_EQ(ctx.cached_plans(), 2u);
  ctx.transpose(c.data(), 12, 36);  // evicts the LRU entry (shape a)
  EXPECT_EQ(ctx.cached_plans(), 2u);
  EXPECT_EQ(ctx.stats().plan_evictions, 1u);

  util::fill_iota(std::span<double>(a));
  ctx.transpose(a.data(), 24, 18);  // re-planned: a was evicted
  EXPECT_EQ(ctx.stats().plan_misses, 4u);

  // Touch order matters: b is now LRU; re-touching c then adding a fourth
  // shape must evict b, not c.
  util::fill_iota(std::span<double>(c));
  ctx.transpose(c.data(), 12, 36);
  auto d = util::iota_matrix<double>(36, 12);
  ctx.transpose(d.data(), 36, 12);
  util::fill_iota(std::span<double>(c));
  ctx.transpose(c.data(), 12, 36);
  EXPECT_EQ(ctx.stats().plan_misses, 5u);  // c stayed cached
}

TEST(Context, ClearDropsCachedStateButKeepsCounters) {
  transpose_context ctx;
  auto a = util::iota_matrix<double>(24, 18);
  ctx.transpose(a.data(), 24, 18);
  EXPECT_EQ(ctx.cached_plans(), 1u);
  EXPECT_GT(ctx.cached_bytes(), 0u);
  ctx.clear();
  EXPECT_EQ(ctx.cached_plans(), 0u);
  EXPECT_EQ(ctx.cached_bytes(), 0u);
  EXPECT_EQ(ctx.stats().executions, 1u);  // monotonic counters survive
  util::fill_iota(std::span<double>(a));
  ctx.transpose(a.data(), 24, 18);
  EXPECT_EQ(ctx.stats().plan_misses, 2u);  // cold again after clear
}

TEST(Context, InvalidArgumentsThrowWithoutCachingAnything) {
  transpose_context ctx;
  EXPECT_THROW(ctx.transpose(static_cast<double*>(nullptr), 4, 5),
               inplace::error);
  EXPECT_EQ(ctx.stats().executions, 0u);
  EXPECT_EQ(ctx.cached_plans(), 0u);
}

TEST(Context, SubmitCompletesAsynchronously) {
  transpose_context ctx;
  const std::size_t m = 48;
  const std::size_t n = 36;
  constexpr int jobs = 8;
  std::vector<std::vector<double>> bufs;
  bufs.reserve(jobs);
  const auto src = util::iota_matrix<double>(m, n);
  for (int k = 0; k < jobs; ++k) {
    bufs.push_back(src);
  }
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  for (auto& buf : bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  for (auto& fut : futs) {
    EXPECT_NO_THROW(fut.get());
  }
  for (const auto& buf : bufs) {
    expect_transposed(buf, src, m, n, "submitted job");
  }
  EXPECT_EQ(ctx.stats().async_jobs, static_cast<std::uint64_t>(jobs));
}

TEST(Context, SubmitPropagatesErrorsThroughTheFuture) {
  transpose_context ctx;
  auto fut = ctx.submit(static_cast<float*>(nullptr), 6, 7);
  EXPECT_THROW(fut.get(), inplace::error);
}

TEST(Context, BatchRunsEveryJobAndCapturesErrorsPerJob) {
  transpose_context ctx;
  const std::size_t m = 40;
  const std::size_t n = 28;
  const auto src = util::iota_matrix<float>(m, n);
  std::vector<std::vector<float>> bufs(4, src);
  std::vector<transpose_job<float>> jobs;
  for (auto& buf : bufs) {
    jobs.push_back({buf.data(), m, n});
  }
  jobs[2].data = nullptr;  // job 2 must fail; 0, 1 and 3 must still run

  const batch_result res =
      ctx.transpose_batch(std::span<const transpose_job<float>>(jobs));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.failed, 1u);
  ASSERT_EQ(res.errors.size(), 4u);
  for (std::size_t k = 0; k < res.errors.size(); ++k) {
    EXPECT_EQ(static_cast<bool>(res.errors[k]), k == 2) << "job " << k;
  }
  EXPECT_THROW(res.rethrow_first(), inplace::error);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    expect_transposed(bufs[k], src, m, n, "batch job");
  }

  const batch_result empty =
      ctx.transpose_batch(std::span<const transpose_job<float>>{});
  EXPECT_TRUE(empty.ok());
  EXPECT_NO_THROW(empty.rethrow_first());
}

// Many threads hammering one shared context with mixed shapes — the LRU,
// the per-entry arena checkout and the memo replay must all stay
// race-free (this is the suite TSan watches).  Every thread verifies its
// own buffers, so an aliased workspace or a cross-thread arena handout
// shows up as a data corruption, not just a race report.
TEST(Context, ConcurrentMixedShapeStressOnOneSharedContext) {
  context_options copts;
  copts.max_plans = 4;  // force eviction churn while executions are live
  transpose_context ctx(copts);
  const struct {
    std::size_t rows, cols;
  } shapes[] = {{64, 48}, {48, 64}, {1000, 8}, {33, 77}, {29, 31}};
  constexpr int workers = 8;
  constexpr int iters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < iters; ++it) {
        const auto& s = shapes[static_cast<std::size_t>(t + it) %
                               std::size(shapes)];
        const auto src = util::iota_matrix<double>(s.rows, s.cols);
        auto buf = src;
        ctx.transpose(buf.data(), s.rows, s.cols);
        const auto want = util::reference_transpose(
            std::span<const double>(src), s.rows, s.cols);
        if (util::first_mismatch(std::span<const double>(buf),
                                 std::span<const double>(want)) != -1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const auto s = ctx.stats();
  EXPECT_EQ(s.executions, static_cast<std::uint64_t>(workers * iters));
  // Conservation: every execution either created or reused an arena.
  EXPECT_EQ(s.arenas_created + s.arenas_reused, s.executions);
}

// Mixing synchronous calls and submit() on the same context from
// multiple threads must also be clean.
TEST(Context, ConcurrentSubmitAndTransposeStress) {
  transpose_context ctx;
  const std::size_t m = 52;
  const std::size_t n = 44;
  const auto src = util::iota_matrix<float>(m, n);
  constexpr int per_side = 12;
  std::vector<std::vector<float>> async_bufs(per_side, src);
  std::vector<std::future<void>> futs;
  futs.reserve(per_side);
  std::atomic<int> failures{0};
  std::thread sync_side([&] {
    for (int k = 0; k < per_side; ++k) {
      auto buf = src;
      ctx.transpose(buf.data(), m, n);
      const auto want = util::reference_transpose(
          std::span<const float>(src), m, n);
      if (util::first_mismatch(std::span<const float>(buf),
                               std::span<const float>(want)) != -1) {
        failures.fetch_add(1);
      }
    }
  });
  for (auto& buf : async_bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  for (auto& fut : futs) {
    fut.get();
  }
  sync_side.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& buf : async_bufs) {
    expect_transposed(buf, src, m, n, "async side");
  }
}

// Regression (worker-pool shutdown bugfix): destroying a context with
// jobs in flight and queued used to abandon the queued-but-unstarted
// jobs, leaving their futures unsatisfied forever (a fut.get() after the
// dtor deadlocked).  Now every future settles: completed jobs hold the
// transpose, abandoned ones throw context_shutdown with their buffer
// untouched.
TEST(Context, DestructionWithPendingJobsSettlesEveryFuture) {
  const std::size_t m = 80;
  const std::size_t n = 64;
  const auto src = util::iota_matrix<double>(m, n);
  constexpr std::size_t jobs = 24;
  std::vector<std::vector<double>> bufs(jobs, src);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  {
    context_options copts;
    copts.workers = 1;  // keep most jobs queued when the dtor runs
    transpose_context ctx(copts);
    for (auto& buf : bufs) {
      futs.push_back(ctx.submit(buf.data(), m, n));
    }
  }
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  for (std::size_t k = 0; k < futs.size(); ++k) {
    ASSERT_TRUE(futs[k].valid());
    try {
      futs[k].get();
      ++completed;
      expect_transposed(bufs[k], src, m, n, "job completed before dtor");
    } catch (const context_shutdown&) {
      ++cancelled;
      // Never started: the buffer must be bit-exactly untouched.
      EXPECT_EQ(util::first_mismatch(std::span<const double>(bufs[k]),
                                     std::span<const double>(src)),
                -1)
          << "cancelled job " << k << " touched its buffer";
    }
  }
  EXPECT_EQ(completed + cancelled, jobs);
}

// shutdown(drain_pending=true) instead runs everything already queued.
TEST(Context, ShutdownDrainCompletesQueuedJobs) {
  const std::size_t m = 48;
  const std::size_t n = 40;
  const auto src = util::iota_matrix<float>(m, n);
  constexpr std::size_t jobs = 10;
  std::vector<std::vector<float>> bufs(jobs, src);
  context_options copts;
  copts.workers = 1;
  transpose_context ctx(copts);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  for (auto& buf : bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  ctx.shutdown(/*drain_pending=*/true);
  for (auto& fut : futs) {
    EXPECT_NO_THROW(fut.get());
  }
  for (const auto& buf : bufs) {
    expect_transposed(buf, src, m, n, "drained job");
  }
  EXPECT_THROW(
      {
        auto buf = src;
        auto fut = ctx.submit(buf.data(), m, n);
        (void)fut;
      },
      context_shutdown);
}

// Regression (workspace aliasing bugfix): a thread_count_guard raising
// the OpenMP pool past what workspace_pool was constructed for used to
// make local() wrap around and alias one workspace across two threads.
// ensure() must grow the pool to the active team, and every thread in a
// parallel region must get a distinct workspace.
TEST(Context, WorkspacePoolCoversAThreadCountRaisedPastItsHint) {
#if defined(INPLACE_HAVE_OPENMP)
  detail::workspace_pool<float> pool(64, 48, 16, /*threads_hint=*/1);
  const int raised = static_cast<int>(pool.size()) + 3;
  util::thread_count_guard guard(raised);
  // The engines call ensure() after installing their guard; without it
  // the pool would be `raised - 3` workspaces short.
  pool.ensure(util::hardware_threads());
  ASSERT_GE(pool.size(), static_cast<std::size_t>(raised));

  std::vector<detail::workspace<float>*> slot(pool.size(), nullptr);
  std::atomic<int> active{0};
#pragma omp parallel
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    if (tid < slot.size()) {
      slot[tid] = &pool.local();
      active.fetch_add(1);
    }
  }
  ASSERT_GE(active.load(), 1);
  for (std::size_t i = 0; i < slot.size(); ++i) {
    for (std::size_t j = i + 1; j < slot.size(); ++j) {
      if (slot[i] != nullptr) {
        EXPECT_NE(slot[i], slot[j])
            << "threads " << i << " and " << j << " alias one workspace";
      }
    }
  }
#else
  GTEST_SKIP() << "OpenMP not available";
#endif
}

// End-to-end variant: requesting more threads than the machine has used
// to be exactly the undersizing scenario (pool sized from
// hardware_threads(), guard raising past it inside the engine).
TEST(Context, TransposeWithOversubscribedThreadRequestStaysCorrect) {
  transpose_context ctx;
  options opts;
  opts.threads = util::hardware_threads() + 3;
  roundtrip(ctx, 96, 64, "oversubscribed blocked", opts);
  roundtrip(ctx, 96, 64, "oversubscribed blocked warm", opts);
}

// Regression (telemetry thread-probe bugfix): probing what a thread
// request would achieve must not mutate the OpenMP runtime.  The old
// probe constructed a thread_count_guard, whose omp_set_num_threads leaks
// a wrong pool size into concurrently launching parallel regions.
TEST(Context, ThreadProbeDoesNotMutateTheOmpRuntime) {
  const int before = util::hardware_threads();

  const auto def = util::probe_thread_count(0);
  EXPECT_EQ(def.requested, 0);
  EXPECT_EQ(def.active, before);
  EXPECT_TRUE(def.honored);
  EXPECT_EQ(util::hardware_threads(), before);

  const auto raised = util::probe_thread_count(before + 5);
  EXPECT_EQ(raised.requested, before + 5);
  EXPECT_GE(raised.active, 1);
  EXPECT_EQ(util::hardware_threads(), before)
      << "probe_thread_count mutated the OpenMP pool size";

#if defined(INPLACE_HAVE_OPENMP)
  // The prediction matches what a real guard achieves (sequentially —
  // the guard itself is the mutating operation the probe replaces).
  const auto predicted = util::probe_thread_count(3);
  {
    util::thread_count_guard g(3);
    EXPECT_EQ(predicted.active, g.active());
    EXPECT_EQ(predicted.honored, g.honored());
  }
  EXPECT_EQ(util::hardware_threads(), before);
#endif
}

TEST(Context, ConcurrentThreadProbesAreRaceFree) {
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < 200; ++k) {
        const auto p = util::probe_thread_count(t);
        if (p.active < 1) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// The plan cache.

TEST(PlanCache, EvictionBoundsPlansAndReleasesBytes) {
  // The plan population never exceeds max_plans, evictions do fire, and
  // clear() releases every retained byte (no accounting drift in
  // retained_bytes_).
  context_options copts;
  copts.max_plans = 8;
  transpose_context ctx(copts);
  for (std::uint64_t m = 8; m < 40; ++m) {
    auto a = util::iota_matrix<double>(m, 24);
    ctx.transpose(a.data(), m, 24);
    EXPECT_LE(ctx.cached_plans(), copts.max_plans);
  }
  EXPECT_GT(ctx.stats().plan_evictions, 0u);
  ctx.clear();
  EXPECT_EQ(ctx.cached_plans(), 0u);
  EXPECT_EQ(ctx.cached_bytes(), 0u);
}

TEST(PlanCache, EvictFaultLeavesCacheIntact) {
  // An injected ctx.cache.evict fault fires before the eviction mutates
  // anything: the transpose that triggered it fails, but the cache keeps
  // its population and byte accounting, and recovers once disarmed.
  context_options copts;
  copts.max_plans = 2;  // the third insert must evict
  transpose_context ctx(copts);
  auto a = util::iota_matrix<double>(24, 18);
  auto b = util::iota_matrix<double>(18, 24);
  auto c = util::iota_matrix<double>(12, 36);
  ctx.transpose(a.data(), 24, 18);
  ctx.transpose(b.data(), 18, 24);
  const std::size_t plans_before = ctx.cached_plans();
  const std::size_t bytes_before = ctx.cached_bytes();

  {
    failpoint::scoped_trigger fault("ctx.cache.evict",
                                    failpoint::mode::fault);
    EXPECT_THROW(ctx.transpose(c.data(), 12, 36), failpoint::injected_fault);
    EXPECT_EQ(ctx.cached_plans(), plans_before);
    EXPECT_EQ(ctx.cached_bytes(), bytes_before);
    EXPECT_EQ(ctx.stats().plan_evictions, 0u);
  }

  util::fill_iota(std::span<double>(c));
  ctx.transpose(c.data(), 12, 36);  // eviction works again
  EXPECT_EQ(ctx.cached_plans(), 2u);
  EXPECT_EQ(ctx.stats().plan_evictions, 1u);
}

TEST(PlanCache, ConcurrentMixedShapeTrafficStaysConsistent) {
  // Several threads, each with its own shape family, hammering one
  // context.  Correctness per call plus conserved arena accounting at
  // the end.
  context_options copts;
  copts.max_plans = 64;
  transpose_context ctx(copts);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t rows = 16 + static_cast<std::size_t>(t) * 7;
      const std::size_t cols = 24 + static_cast<std::size_t>(t) * 5;
      const auto src = util::iota_matrix<double>(rows, cols);
      for (int rep = 0; rep < 25; ++rep) {
        auto buf = src;
        ctx.transpose(buf.data(), rows, cols);
        const auto want = util::reference_transpose(
            std::span<const double>(src), rows, cols);
        if (util::first_mismatch(std::span<const double>(buf),
                                 std::span<const double>(want)) != -1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const auto s = ctx.stats();
  EXPECT_EQ(s.executions, static_cast<std::uint64_t>(kThreads) * 25u);
  // Conservation: every created or reused arena belongs to exactly one
  // execution.
  EXPECT_EQ(s.arenas_created + s.arenas_reused, s.executions);
  ctx.clear();
  EXPECT_EQ(ctx.cached_bytes(), 0u);
}

}  // namespace
