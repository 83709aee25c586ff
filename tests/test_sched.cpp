// Tests for the QoS-aware scheduler (core/sched.hpp): priority ordering
// across classes and deadlines, deadline expiry semantics, the per-class
// counter invariant (settled <= enqueued at every concurrent sample),
// and two queue-lifecycle regression fixes:
//
//   * cancel_pending() must wake producers parked in the enqueue()
//     backpressure wait (CancelUnblocksBlockedProducer);
//   * a worker-thread re-entrant enqueue against a full queue must fail
//     fast with queue_overflow instead of deadlocking
//     (ReentrantEnqueueAtMaxQueueFailsFast).
//
// The Sched suite name is matched by the TSan filter in
// tools/run_sanitizers.sh — the heap, the counters and the condition
// variables must all be race-free.

#include "core/sched.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "util/matrix.hpp"

namespace {

using namespace inplace;
using namespace std::chrono_literals;
using detail::context_workers;

/// A job that records its tag into `order` when run (and is counted as
/// settled either way — the pool requires every job to tolerate a
/// failure exception_ptr).
context_workers::job tagged(std::vector<int>& order, std::mutex& order_mu,
                            int tag) {
  return [&order, &order_mu, tag](std::exception_ptr abort) {
    if (abort) {
      return;  // cancelled/faulted: settle silently
    }
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
}

/// Blocks the pool's (single) worker until `release` is satisfied, and
/// reports that the worker reached the job via `entered`.
context_workers::job gate_job(std::promise<void>& entered,
                              std::shared_future<void> release) {
  return [&entered, release](std::exception_ptr abort) {
    if (abort) {
      return;
    }
    entered.set_value();
    release.wait();
  };
}

TEST(Sched, QosClassesOvertakeInPriorityOrder) {
  context_workers::config cfg;
  cfg.count = 1;  // one worker: pops are totally ordered
  cfg.max_queue = 64;
  context_workers pool(cfg);

  // Park the worker so every subsequent enqueue lands in the heap before
  // any pop happens — the pop order is then pure scheduling policy.
  std::promise<void> entered;
  std::promise<void> release;
  pool.enqueue(gate_job(entered, release.get_future().share()), {});
  entered.get_future().wait();

  std::vector<int> order;
  std::mutex order_mu;
  job_options batch;
  batch.qos = qos_class::batch;
  job_options standard;  // default class
  job_options interactive;
  interactive.qos = qos_class::interactive;

  // Submission order deliberately inverts priority order.
  pool.enqueue(tagged(order, order_mu, 30), batch);
  pool.enqueue(tagged(order, order_mu, 31), batch);
  pool.enqueue(tagged(order, order_mu, 20), standard);
  pool.enqueue(tagged(order, order_mu, 21), standard);
  pool.enqueue(tagged(order, order_mu, 10), interactive);
  pool.enqueue(tagged(order, order_mu, 11), interactive);

  release.set_value();
  pool.shutdown(/*drain_pending=*/true);

  // Interactive before standard before batch; FIFO within each class.
  const std::vector<int> want = {10, 11, 20, 21, 30, 31};
  EXPECT_EQ(order, want);

  const auto qs = pool.qos_stats();
  EXPECT_EQ(qs[qos_index(qos_class::interactive)].enqueued, 2u);
  EXPECT_EQ(qs[qos_index(qos_class::interactive)].completed, 2u);
  EXPECT_EQ(qs[qos_index(qos_class::standard)].enqueued, 3u);  // + gate job
  EXPECT_EQ(qs[qos_index(qos_class::batch)].completed, 2u);
}

TEST(Sched, EarlierDeadlineRunsFirstWithinAClass) {
  context_workers::config cfg;
  cfg.count = 1;
  cfg.max_queue = 16;
  context_workers pool(cfg);

  std::promise<void> entered;
  std::promise<void> release;
  pool.enqueue(gate_job(entered, release.get_future().share()), {});
  entered.get_future().wait();

  std::vector<int> order;
  std::mutex order_mu;
  const auto now = std::chrono::steady_clock::now();
  job_options late;
  late.deadline = now + 1h;
  job_options early;
  early.deadline = now + 30min;
  job_options none;  // no_deadline sorts after every real deadline

  pool.enqueue(tagged(order, order_mu, 3), none);
  pool.enqueue(tagged(order, order_mu, 2), late);
  pool.enqueue(tagged(order, order_mu, 1), early);

  release.set_value();
  pool.shutdown(/*drain_pending=*/true);
  const std::vector<int> want = {1, 2, 3};
  EXPECT_EQ(order, want);
}

TEST(Sched, ExpiredDeadlineSettlesWithDeadlineExceededWithoutRunning) {
  context_workers::config cfg;
  cfg.count = 1;
  cfg.max_queue = 16;
  context_workers pool(cfg);

  std::promise<void> settled;
  std::atomic<bool> ran{false};
  job_options expired;
  expired.deadline = std::chrono::steady_clock::now() - 1ms;
  pool.enqueue(
      [&settled, &ran](std::exception_ptr abort) {
        if (abort) {
          settled.set_exception(abort);
          return;
        }
        ran.store(true);
        settled.set_value();
      },
      expired);

  EXPECT_THROW(settled.get_future().get(), deadline_exceeded);
  EXPECT_FALSE(ran.load());
  pool.shutdown(/*drain_pending=*/true);
  const auto qs = pool.qos_stats();
  EXPECT_EQ(qs[qos_index(qos_class::standard)].deadline_expired, 1u);
  EXPECT_EQ(qs[qos_index(qos_class::standard)].completed, 0u);
}

TEST(Sched, ContextSubmitHonorsDeadlineAndCountsPerClass) {
  // The public path: submit(data, ..., job_options) through a context.
  context_options copts;
  copts.workers = 1;
  transpose_context ctx(copts);
  auto a = util::iota_matrix<double>(24, 18);

  job_options expired;
  expired.qos = qos_class::interactive;
  expired.deadline = std::chrono::steady_clock::now() - 1ms;
  auto doomed = ctx.submit(a.data(), std::size_t{24}, std::size_t{18},
                           storage_order::row_major, options{}, expired);
  EXPECT_THROW(doomed.get(), deadline_exceeded);
  // The buffer was not touched: a live resubmission still transposes the
  // original contents correctly.
  job_options batch;
  batch.qos = qos_class::batch;
  auto fut = ctx.submit(a.data(), std::size_t{24}, std::size_t{18},
                        storage_order::row_major, options{}, batch);
  fut.get();
  const auto want = util::reference_transpose(
      std::span<const double>(util::iota_matrix<double>(24, 18)), 24, 18);
  EXPECT_EQ(util::first_mismatch(std::span<const double>(a),
                                 std::span<const double>(want)),
            -1);

  const auto s = ctx.stats();
  EXPECT_EQ(s.qos[qos_index(qos_class::interactive)].deadline_expired, 1u);
  EXPECT_EQ(s.qos[qos_index(qos_class::batch)].completed, 1u);
  EXPECT_EQ(s.async_jobs, 2u);
}

TEST(Sched, CancelUnblocksBlockedProducer) {
  // Regression: cancel_pending() drains the queue, so a producer parked
  // in the enqueue() backpressure wait must be woken — without the
  // cv_space_ notify it stays parked until an unrelated pop.
  context_workers::config cfg;
  cfg.count = 1;
  cfg.max_queue = 1;
  context_workers pool(cfg);

  std::promise<void> entered;
  std::promise<void> release;
  pool.enqueue(gate_job(entered, release.get_future().share()), {});
  entered.get_future().wait();  // worker busy; queue now empty

  std::vector<int> order;
  std::mutex order_mu;
  pool.enqueue(tagged(order, order_mu, 1), {});  // fills the queue

  std::promise<void> producer_done;
  std::thread producer([&] {
    // Blocks: the queue is at max_queue and the only worker is parked in
    // the gate job, so nothing pops.  Only a wakeup can free this.
    pool.enqueue(tagged(order, order_mu, 2), {});
    producer_done.set_value();
  });
  // Give the producer time to reach the backpressure wait.
  std::this_thread::sleep_for(50ms);

  EXPECT_EQ(pool.cancel_pending(), 1u);  // drains job 1, must notify

  const auto status = producer_done.get_future().wait_for(5s);
  EXPECT_EQ(status, std::future_status::ready)
      << "producer stayed parked after cancel_pending drained the queue";

  release.set_value();
  producer.join();
  pool.shutdown(/*drain_pending=*/true);
  const auto qs = pool.qos_stats();
  EXPECT_EQ(qs[qos_index(qos_class::standard)].cancelled, 1u);
}

TEST(Sched, ReentrantEnqueueAtMaxQueueFailsFast) {
  // Regression: a job enqueueing into its own pool while the queue is at
  // max_queue must get queue_overflow, not park in a backpressure wait
  // it can never be woken from (the queue drains only through the worker
  // that would be doing the waiting).
  context_workers::config cfg;
  cfg.count = 1;
  cfg.max_queue = 1;
  context_workers pool(cfg);

  std::promise<void> queue_full;
  std::promise<std::exception_ptr> nested_result;
  pool.enqueue(
      [&](std::exception_ptr abort) {
        if (abort) {
          nested_result.set_value(abort);
          return;
        }
        // Wait until the main thread filled the queue behind us.
        queue_full.get_future().wait();
        try {
          pool.enqueue([](std::exception_ptr) {}, {});
          nested_result.set_value(nullptr);  // would have deadlocked pre-fix
        } catch (...) {
          nested_result.set_value(std::current_exception());
        }
      },
      {});

  // Fill the queue while the worker is parked inside the job above.
  std::vector<int> order;
  std::mutex order_mu;
  pool.enqueue(tagged(order, order_mu, 1), {});
  queue_full.set_value();

  auto fut = nested_result.get_future();
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready)
      << "re-entrant enqueue deadlocked instead of failing fast";
  const std::exception_ptr err = fut.get();
  ASSERT_TRUE(err != nullptr);
  EXPECT_THROW(std::rethrow_exception(err), queue_overflow);
  pool.shutdown(/*drain_pending=*/true);
}

TEST(Sched, ReentrantEnqueueWithRoomSucceeds) {
  // A worker submitting to its own pool is fine while there is room —
  // only the would-deadlock case (full queue) fails fast.
  context_workers::config cfg;
  cfg.count = 1;
  cfg.max_queue = 4;
  context_workers pool(cfg);

  std::promise<void> nested_ran;
  pool.enqueue(
      [&](std::exception_ptr abort) {
        if (abort) {
          return;
        }
        pool.enqueue(
            [&](std::exception_ptr inner_abort) {
              if (!inner_abort) {
                nested_ran.set_value();
              }
            },
            {});
      },
      {});
  EXPECT_EQ(nested_ran.get_future().wait_for(5s),
            std::future_status::ready);
  pool.shutdown(/*drain_pending=*/true);
}

TEST(Sched, StatsSnapshotNeverTearsSettledPastEnqueued) {
  // The coherence invariant under fire (the TSan matrix runs this suite):
  // while producers and workers churn, every qos_stats() sample must
  // satisfy settled() <= enqueued for every class — the settle side is
  // read first against release stores, so a torn read can only
  // undercount settles.
  context_workers::config cfg;
  cfg.count = 2;
  cfg.max_queue = 32;
  context_workers pool(cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto qs = pool.qos_stats();
      for (const auto& c : qs) {
        if (c.settled() > c.enqueued) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  constexpr int kJobs = 400;
  std::atomic<int> done{0};
  const qos_class classes[] = {qos_class::interactive, qos_class::standard,
                               qos_class::batch};
  for (int k = 0; k < kJobs; ++k) {
    job_options opts;
    opts.qos = classes[k % 3];
    if (k % 7 == 0) {
      opts.deadline = std::chrono::steady_clock::now() - 1ms;  // expires
    }
    pool.enqueue(
        [&done](std::exception_ptr) {
          done.fetch_add(1, std::memory_order_relaxed);
        },
        opts);
  }
  pool.shutdown(/*drain_pending=*/true);
  stop.store(true);
  sampler.join();

  EXPECT_EQ(torn.load(), 0u) << "a stats sample saw settled > enqueued";
  EXPECT_EQ(done.load(), kJobs);  // every job settled exactly once
  const auto qs = pool.qos_stats();
  std::uint64_t enqueued = 0;
  std::uint64_t settled = 0;
  for (const auto& c : qs) {
    enqueued += c.enqueued;
    settled += c.settled();
  }
  EXPECT_EQ(enqueued, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(settled, enqueued);  // quiescent: conservation holds exactly
}

TEST(Sched, SchedPopFaultSettlesTheTicketExactlyOnce) {
  // An injected ctx.sched.pop fault must neither kill the worker thread
  // nor orphan the popped ticket: the ticket settles with the injected
  // exception and the pool keeps serving afterwards.
  context_workers::config cfg;
  cfg.count = 1;
  cfg.max_queue = 8;
  context_workers pool(cfg);

  std::promise<void> first;
  {
    failpoint::scoped_trigger fault("ctx.sched.pop", failpoint::mode::fault,
                                    /*skip=*/0, /*count=*/1);
    pool.enqueue(
        [&first](std::exception_ptr abort) {
          if (abort) {
            first.set_exception(abort);
          } else {
            first.set_value();
          }
        },
        {});
    EXPECT_THROW(first.get_future().get(), failpoint::injected_fault);
  }

  // The worker survived: later jobs run normally.
  std::promise<void> second;
  pool.enqueue(
      [&second](std::exception_ptr abort) {
        if (!abort) {
          second.set_value();
        }
      },
      {});
  EXPECT_EQ(second.get_future().wait_for(5s), std::future_status::ready);
  pool.shutdown(/*drain_pending=*/true);
}

}  // namespace
