#include "core/sched.hpp"

#include <algorithm>
#include <utility>

#include "core/failpoint.hpp"

namespace inplace::detail {

namespace {

// The pool the calling thread is a worker of, if any.  Set for the
// lifetime of worker_loop; lets enqueue() recognize a re-entrant submit
// (a job submitting to its own context) and refuse to park in the
// backpressure wait it could never be woken from.
thread_local context_workers* t_current_pool = nullptr;

}  // namespace

bool context_workers::runs_after(const ticket& a, const ticket& b) {
  // std::push_heap/pop_heap keep the *best* ticket at the front under a
  // "less-than" comparator, so this orders by "a is scheduled after b".
  if (a.qos != b.qos) {
    return static_cast<std::uint8_t>(a.qos) > static_cast<std::uint8_t>(b.qos);
  }
  if (a.deadline != b.deadline) {
    return a.deadline > b.deadline;
  }
  return a.seq > b.seq;  // FIFO within {class, deadline}
}

context_workers::context_workers(const config& cfg)
    : max_queue_(std::max<std::size_t>(1, cfg.max_queue)) {
  const std::size_t want = std::max<std::size_t>(1, cfg.count);
  // threads_ is guarded by join_mu_; no shutdown() can race a running
  // constructor, but holding the capability keeps the discipline uniform
  // (and provable) across every threads_ access.  The workers spawned
  // below contend only on mu_, never join_mu_, so no deadlock.
  util::mutex_guard jlock(join_mu_);
  threads_.reserve(want);
  try {
    for (std::size_t k = 0; k < want; ++k) {
      INPLACE_FAILPOINT("ctx.spawn");
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Partial spawn: stop and join the workers that did start, so the
    // half-built pool never escapes the constructor with live threads.
    {
      util::mutex_guard lock(mu_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    throw;
  }
}

context_workers::~context_workers() { shutdown(/*drain_pending=*/false); }

void context_workers::enqueue(job j, const job_options& opts) {
  const bool reentrant = t_current_pool == this;
  {
    util::waitable_lock lock(mu_);
    if (reentrant && !stopping_ && queue_.size() >= max_queue_) {
      // A worker parked in the backpressure wait below can never be
      // woken: the queue drains only through this pool, and this thread
      // IS the pool (or one max_queue_-th of it).  Fail fast instead.
      throw queue_overflow(
          "inplace: re-entrant submit from a worker thread with the "
          "context queue at max_queue would deadlock; complete or "
          "defer the nested job instead");
    }
    while (!stopping_ && !reentrant && queue_.size() >= max_queue_) {
      lock.wait(cv_space_);
    }
    if (stopping_) {
      throw context_shutdown(
          "inplace: submit on a transpose_context whose async machinery "
          "was shut down");
    }
    INPLACE_FAILPOINT("ctx.queue.push");
    ticket t;
    t.qos = opts.qos;
    t.deadline = opts.deadline;
    t.seq = next_seq_++;
    t.fn = std::move(j);
    queue_.push_back(std::move(t));
    std::push_heap(queue_.begin(), queue_.end(), runs_after);
    // Counted before mu_ is released: any settle of this job acquires
    // mu_ first (the worker pop), so the enqueue increment is ordered
    // before the settle increment without needing release here.
    enqueued_[qos_index(opts.qos)].fetch_add(1, std::memory_order_relaxed);
  }
  cv_work_.notify_one();
}

std::size_t context_workers::cancel_pending() {
  std::vector<ticket> doomed;
  {
    util::mutex_guard lock(mu_);
    doomed.swap(queue_);
  }
  // Regression guard (tests/test_sched.cpp CancelUnblocksProducer): the
  // drain freed max_queue_ worth of space, so producers parked in the
  // enqueue() backpressure wait must be woken here — without this they
  // stay blocked until an unrelated pop happens to notify them.
  cv_space_.notify_all();
  return fail_tickets(std::move(doomed),
                      "inplace: async transpose cancelled before execution "
                      "(transpose_context::cancel_pending)");
}

std::size_t context_workers::shutdown(bool drain_pending) {
  std::vector<ticket> doomed;
  {
    util::mutex_guard lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      if (!drain_pending) {
        doomed.swap(queue_);
      }
    }
    // Already stopping: a concurrent shutdown owns the queue decision;
    // fall through to the join so both calls return with workers dead.
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  const std::size_t failed = fail_tickets(
      std::move(doomed),
      "inplace: async transpose abandoned by context shutdown before it "
      "started (transpose_context::shutdown(drain_pending=false))");
  {
    util::mutex_guard jlock(join_mu_);
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
  }
  return failed;
}

std::size_t context_workers::pending() const {
  util::mutex_guard lock(mu_);
  return queue_.size();
}

std::array<qos_counters, qos_class_count> context_workers::qos_stats() const {
  std::array<qos_counters, qos_class_count> out{};
  // Settled counters first, with acquire: each settle increment is a
  // release store that happens-after its own job's enqueue increment
  // (ordered by mu_ at the pop).  Reading settled before enqueued
  // therefore can only *under*count settles relative to the enqueues
  // read afterwards — settled <= enqueued holds at every sample.
  for (std::size_t k = 0; k < qos_class_count; ++k) {
    out[k].completed = completed_[k].load(std::memory_order_acquire);
    out[k].deadline_expired = expired_[k].load(std::memory_order_acquire);
    out[k].cancelled = cancelled_[k].load(std::memory_order_acquire);
  }
  for (std::size_t k = 0; k < qos_class_count; ++k) {
    out[k].enqueued = enqueued_[k].load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t context_workers::fail_tickets(std::vector<ticket>&& doomed,
                                          const char* what) {
  if (doomed.empty()) {
    return 0;
  }
  const std::exception_ptr reason =
      std::make_exception_ptr(context_shutdown(what));
  for (auto& t : doomed) {
    cancelled_[qos_index(t.qos)].fetch_add(1, std::memory_order_release);
    t.fn(reason);  // settles the job's promise with context_shutdown
  }
  const std::size_t n = doomed.size();
  doomed.clear();
  return n;
}

void context_workers::worker_loop() {
  t_current_pool = this;
  for (;;) {
    ticket t;
    std::exception_ptr sched_poison;
    {
      util::waitable_lock lock(mu_);
      while (!stopping_ && queue_.empty()) {
        lock.wait(cv_work_);
      }
      if (queue_.empty()) {
        return;  // stop requested and nothing pending
      }
      // "ctx.sched.pop" models a scheduler fault at the pop.  A throw
      // here must not escape the thread function (std::terminate) and
      // must not orphan the picked ticket, so the fault is captured and
      // settles the ticket's future below — exactly-once, like every
      // other settle path.
#if defined(INPLACE_FAILPOINTS)
      try {
        INPLACE_FAILPOINT("ctx.sched.pop");
      } catch (...) {
        sched_poison = std::current_exception();
      }
#endif
      std::pop_heap(queue_.begin(), queue_.end(), runs_after);
      t = std::move(queue_.back());
      queue_.pop_back();
    }
    cv_space_.notify_one();
    // Settle counters tick immediately *before* the job settles its
    // promise: a caller whose future.get() returned then synchronizes
    // with the set_value/set_exception, so the increment is already
    // visible in its next stats() read.  settled <= enqueued still
    // holds — this job's enqueue increment happened long before.
    const std::size_t qi = qos_index(t.qos);
    if (sched_poison) {
      cancelled_[qi].fetch_add(1, std::memory_order_release);
      t.fn(sched_poison);
      continue;
    }
    // Deadline check at pickup: an expired ticket settles with
    // deadline_exceeded instead of running — its buffer is untouched.
    if (t.deadline != no_deadline &&
        std::chrono::steady_clock::now() > t.deadline) {
      expired_[qi].fetch_add(1, std::memory_order_release);
      t.fn(std::make_exception_ptr(deadline_exceeded(
          "inplace: async transpose deadline passed before a worker "
          "picked the job up (job_options::deadline)")));
      continue;
    }
    // "ctx.worker.job" models a worker-side fault before the job body
    // runs (e.g. a TLS or pool-resource failure): the job still settles
    // its future — with the injected exception — instead of vanishing.
    std::exception_ptr poison;
#if defined(INPLACE_FAILPOINTS)
    try {
      INPLACE_FAILPOINT("ctx.worker.job");
    } catch (...) {
      poison = std::current_exception();
    }
#endif
    completed_[qi].fetch_add(1, std::memory_order_release);
    t.fn(poison);  // the closure captures any exception into its future
  }
}

}  // namespace inplace::detail
