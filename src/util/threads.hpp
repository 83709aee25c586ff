#pragma once
// Thin OpenMP shims so the library builds and runs (serially) without it,
// plus the TSan happens-before edges an OpenMP team needs.

#include <cstdint>

#if defined(INPLACE_HAVE_OPENMP)
#include <omp.h>
#endif

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace inplace::util {

/// The OpenMP worker-pool size the next parallel region will use
/// (omp_get_max_threads), honoring any active thread_count_guard.  In
/// builds without OpenMP this is always 1: there is no pool to resize, so
/// requested overrides cannot take effect — check
/// thread_count_guard::honored() when the count matters.
[[nodiscard]] inline int hardware_threads() {
#if defined(INPLACE_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Non-mutating prediction of what a thread_count_guard(threads) would
/// achieve: the pool size the next parallel region would get and whether
/// the request would be honored.  Unlike constructing a guard, this never
/// calls omp_set_num_threads, so it is safe from concurrent transposes —
/// a mutating probe would leak a wrong pool size into a neighbor's
/// parallel region for the probe's lifetime.
struct thread_probe {
  int requested = 0;   ///< the caller's request (<= 0 means "no change")
  int active = 1;      ///< pool size the request would run with
  bool honored = true; ///< whether the request would take effect
};

[[nodiscard]] inline thread_probe probe_thread_count(int threads) {
#if defined(INPLACE_HAVE_OPENMP)
  if (threads <= 0) {
    return {threads, omp_get_max_threads(), true};
  }
  const int limit = omp_get_thread_limit();
  const int active = threads < limit ? threads : limit;
  return {threads, active, active == threads};
#else
  return {threads, 1, threads <= 1};  // a serial build honors only "1"
#endif
}

/// Happens-before edges of an OpenMP team that ThreadSanitizer cannot see:
/// libgomp ships uninstrumented, so its fork and join barriers are
/// invisible and every hand-off across them (rows one region writes and
/// the next reads) reads as a race.  A team calls release() before it
/// forks and as each thread finishes, acquire() as each thread starts and
/// after the join — the edges the barriers provide.  Both compile to
/// nothing outside TSan builds.
class team_edges {
 public:
  void release() {
#if defined(__SANITIZE_THREAD__)
    __tsan_release(this);
#endif
  }
  void acquire() {
#if defined(__SANITIZE_THREAD__)
    __tsan_acquire(this);
#endif
  }
};

/// `#pragma omp parallel for schedule(dynamic, chunk)` over [0, count) —
/// body(k) for every k — with the team's happens-before edges
/// (team_edges), so ThreadSanitizer sees the fork and join that hand the
/// region's writes to the code around it.
template <typename Body>
void parallel_for(std::int64_t count, int chunk, Body&& body) {
#if defined(INPLACE_HAVE_OPENMP)
  team_edges edges;
  edges.release();
#pragma omp parallel
  {
    edges.acquire();
#pragma omp for schedule(dynamic, chunk) nowait
    for (std::int64_t k = 0; k < count; ++k) {
      body(k);
    }
    edges.release();
  }
  edges.acquire();
#else
  (void)chunk;
  for (std::int64_t k = 0; k < count; ++k) {
    body(k);
  }
#endif
}

/// Scoped override of the OpenMP thread count; restores on destruction.
///
/// `threads <= 0` requests no change (the runtime default stays active and
/// counts as honored).  A positive request is honored only in OpenMP
/// builds; serial builds always run single-threaded, and `honored()`
/// reports whether the request actually took effect so callers can detect
/// a silently-serial configuration instead of assuming parallelism.
class thread_count_guard {
 public:
  explicit thread_count_guard(int threads) : requested_(threads) {
#if defined(INPLACE_HAVE_OPENMP)
    previous_ = omp_get_max_threads();
    if (threads > 0) {
      omp_set_num_threads(threads);
      honored_ = omp_get_max_threads() == threads;
    }
#else
    honored_ = threads <= 1;  // a serial build honors only "1" (or no-op)
#endif
  }

  ~thread_count_guard() {
#if defined(INPLACE_HAVE_OPENMP)
    omp_set_num_threads(previous_);
#endif
  }

  thread_count_guard(const thread_count_guard&) = delete;
  thread_count_guard& operator=(const thread_count_guard&) = delete;

  /// The thread count passed to the constructor (<= 0 means "no change").
  [[nodiscard]] int requested() const { return requested_; }

  /// The pool size in effect while this guard is active.
  [[nodiscard]] int active() const { return hardware_threads(); }

  /// True when the requested override (or "no change") is actually in
  /// effect.  False when a positive request was ignored — a non-OpenMP
  /// build, or an OpenMP runtime that refused the resize.
  [[nodiscard]] bool honored() const { return honored_; }

 private:
  int requested_ = 0;
  bool honored_ = true;
#if defined(INPLACE_HAVE_OPENMP)
  int previous_ = 1;
#endif
};

}  // namespace inplace::util
