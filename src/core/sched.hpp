#pragma once
// QoS-aware scheduling for transpose_context's async entry points.
//
// PR 3/5 gave the context a FIFO worker pool with bounded backpressure
// and settle-exactly-once lifecycle guarantees.  This header makes
// scheduling a first-class subsystem: jobs carry a `job_options` — a QoS
// class and an optional absolute deadline — and the queue is a priority
// heap keyed by
//
//     {qos_class, deadline, enqueue_seq}
//
// so interactive work overtakes batch work, earlier deadlines overtake
// later ones within a class, and equal-priority jobs stay FIFO (the
// sequence number is the tiebreak, so no submission order is ever
// reshuffled gratuitously).  A job whose deadline already lapsed when a
// worker picks it up settles with `deadline_exceeded` instead of
// running — its buffer is untouched and the latency bound it missed is
// visible in the per-class counters rather than silently blown.
//
// Lifecycle contract (unchanged from the FIFO pool): every job that
// enters the queue is *settled* exactly once — run by a worker, expired
// by the deadline check, or failed by shutdown/cancel.  Two fixes ride
// along with the rewrite, each with a regression test in
// tests/test_sched.cpp:
//
//   * cancel_pending() notifies cv_space_ after draining the queue, so
//     producers blocked in the enqueue() backpressure wait resume
//     promptly instead of staying parked until an unrelated wakeup;
//   * a *worker-thread re-entrant* submit against a full queue fails
//     fast with `queue_overflow` instead of blocking — a worker parked
//     in its own pool's backpressure wait can never be woken, because
//     the queue drains only through that same pool (deadlock).
//
// Per-class counters (enqueued / completed / deadline_expired /
// cancelled) are maintained with release stores on the settle side and
// snapshotted settled-before-enqueued with acquire loads, so a
// concurrent qos_stats() snapshot always satisfies
// settled <= enqueued per class — see qos_stats().

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "util/annotated_mutex.hpp"

namespace inplace {

/// Scheduling class of an async job, highest priority first.  Workers
/// always pop the best (lowest-valued) class with work pending.
enum class qos_class : std::uint8_t {
  interactive = 0,  ///< latency-sensitive: overtakes everything else
  standard = 1,     ///< the default for plain submit()
  batch = 2,        ///< throughput work: runs when nothing better waits
};
inline constexpr std::size_t qos_class_count = 3;

[[nodiscard]] constexpr const char* qos_class_name(qos_class q) {
  switch (q) {
    case qos_class::interactive:
      return "interactive";
    case qos_class::standard:
      return "standard";
    case qos_class::batch:
      return "batch";
  }
  return "unknown";
}

/// Index of `q` into per-class counter arrays, clamped so a corrupted
/// enum value can never index out of bounds.
[[nodiscard]] constexpr std::size_t qos_index(qos_class q) {
  const auto k = static_cast<std::size_t>(q);
  return k < qos_class_count ? k : qos_class_count - 1;
}

/// Sentinel for "no deadline" (sorts after every real deadline).
inline constexpr std::chrono::steady_clock::time_point no_deadline =
    std::chrono::steady_clock::time_point::max();

/// Per-job scheduling options for submit()/transpose_batch().
struct job_options {
  qos_class qos = qos_class::standard;

  /// Absolute steady_clock deadline; `no_deadline` disables the check.
  /// A job whose deadline passed before a worker picked it up settles
  /// its future with `deadline_exceeded` without running.
  std::chrono::steady_clock::time_point deadline = no_deadline;

  [[nodiscard]] bool has_deadline() const { return deadline != no_deadline; }

  /// Convenience: a deadline `budget` from now at class `q`.
  [[nodiscard]] static job_options within(std::chrono::nanoseconds budget,
                                          qos_class q = qos_class::standard) {
    job_options o;
    o.qos = q;
    o.deadline = std::chrono::steady_clock::now() + budget;
    return o;
  }
};

/// Monotonic per-class scheduling counters (one slot of the array
/// exposed through context_stats::qos).
struct qos_counters {
  std::uint64_t enqueued = 0;          ///< jobs accepted into the queue
  std::uint64_t completed = 0;         ///< picked up and settled by a worker
  std::uint64_t deadline_expired = 0;  ///< settled with deadline_exceeded
  std::uint64_t cancelled = 0;         ///< failed by shutdown/cancel_pending

  /// Jobs whose future has been satisfied, however it went.  Any
  /// coherent snapshot keeps settled() <= enqueued.
  [[nodiscard]] std::uint64_t settled() const {
    return completed + deadline_expired + cancelled;
  }
};

namespace detail {

/// QoS-aware worker pool backing submit()/transpose_batch(), with
/// bounded backpressure and deterministic shutdown.  See the header comment for the scheduling and lifecycle
/// contracts.
class context_workers {
 public:
  /// One queued job.  Invoked with a null exception_ptr to run normally,
  /// or with the failure reason (shutdown, cancel, deadline, injected
  /// worker fault) to satisfy its promise with — either way, the job
  /// must settle its future and must not throw.
  using job = std::function<void(std::exception_ptr)>;

  /// Pool sizing resolved by transpose_context from context_options.
  struct config {
    std::size_t count = 1;      ///< worker threads (clamped to >= 1)
    std::size_t max_queue = 1;  ///< backpressure bound (clamped to >= 1)
  };

  /// Spawns the workers.  If a thread fails to start, the already-
  /// started workers are stopped and joined before the exception
  /// propagates — no half-alive pool escapes.
  explicit context_workers(const config& cfg);

  /// Equivalent to shutdown(/*drain_pending=*/false).
  ~context_workers();
  context_workers(const context_workers&) = delete;
  context_workers& operator=(const context_workers&) = delete;

  /// Enqueues a job at `opts`' class/deadline, blocking while the queue
  /// is at max_queue (backpressure).  Throws context_shutdown once
  /// shutdown began, and queue_overflow for a worker-thread re-entrant
  /// submit against a full queue (see header comment); either way the
  /// job is untouched and the caller still owns its promise.
  void enqueue(job j, const job_options& opts = {}) INPLACE_EXCLUDES(mu_);

  /// Fails every queued-but-unstarted job with context_shutdown
  /// ("cancelled") without stopping the pool, then wakes producers
  /// blocked in the backpressure wait (the queue they were waiting on
  /// has space now).  Returns how many jobs were failed.
  std::size_t cancel_pending() INPLACE_EXCLUDES(mu_);

  /// Stops the pool: no further enqueues succeed.  drain_pending=true
  /// runs the queued jobs first (still in priority order); false fails
  /// them with context_shutdown.  In-flight jobs always finish.  Joins
  /// the workers; idempotent and safe to call concurrently.  Returns
  /// how many jobs were failed.
  std::size_t shutdown(bool drain_pending) INPLACE_EXCLUDES(mu_, join_mu_);

  /// Jobs queued but not yet picked up by a worker.
  [[nodiscard]] std::size_t pending() const INPLACE_EXCLUDES(mu_);

  /// Coherent per-class counter snapshot: the settle-side counters are
  /// read with acquire loads *before* the enqueue counters, and every
  /// settle increment is a release store that happens-after its job's
  /// enqueue increment, so settled() <= enqueued holds per class at
  /// every sample, concurrency notwithstanding.
  [[nodiscard]] std::array<qos_counters, qos_class_count> qos_stats() const;

 private:
  /// One heap slot: the scheduling key plus the job closure.
  struct ticket {
    qos_class qos = qos_class::standard;
    std::chrono::steady_clock::time_point deadline = no_deadline;
    std::uint64_t seq = 0;
    job fn;
  };

  /// Max-heap comparator: true when `a` runs *after* `b` — worse class,
  /// then later deadline, then later submission.
  static bool runs_after(const ticket& a, const ticket& b);

  void worker_loop() INPLACE_EXCLUDES(mu_);

  /// Settles `doomed` with a context_shutdown carrying `what`, counting
  /// each ticket's class as cancelled.
  std::size_t fail_tickets(std::vector<ticket>&& doomed, const char* what);

  mutable util::annotated_mutex mu_;
  std::condition_variable cv_work_;   ///< workers: work available / stopping
  std::condition_variable cv_space_;  ///< producers: queue below the bound
  std::vector<ticket> queue_ INPLACE_GUARDED_BY(mu_);  ///< binary heap
  std::uint64_t next_seq_ INPLACE_GUARDED_BY(mu_) = 0;
  bool stopping_ INPLACE_GUARDED_BY(mu_) = false;
  const std::size_t max_queue_;   ///< immutable after construction

  // Per-class counters.  Enqueue increments are relaxed (ordered before
  // any settle of the same job by the queue mutex); settle increments
  // are release so the qos_stats() read order proves the invariant.
  std::array<std::atomic<std::uint64_t>, qos_class_count> enqueued_{};
  std::array<std::atomic<std::uint64_t>, qos_class_count> completed_{};
  std::array<std::atomic<std::uint64_t>, qos_class_count> expired_{};
  std::array<std::atomic<std::uint64_t>, qos_class_count> cancelled_{};

  /// Serializes the join in concurrent shutdowns; ordered after mu_
  /// (shutdown takes mu_ first, releases it, then joins under join_mu_ —
  /// the two are never held together).
  util::annotated_mutex join_mu_;
  std::vector<std::thread> threads_ INPLACE_GUARDED_BY(join_mu_);
};

}  // namespace detail
}  // namespace inplace
