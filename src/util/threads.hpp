#pragma once
// Thin OpenMP shims so the library builds and runs (serially) without it,
// plus CPU-topology probing and optional thread pinning for the context
// worker pool (context_options::pin_workers).

#include <cstddef>

#if defined(INPLACE_HAVE_OPENMP)
#include <omp.h>
#endif

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
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

/// What the machine looks like to a worker pool deciding placement.
///
/// `allowed` counts the CPUs in *this process's* affinity mask (cgroup /
/// taskset restrictions included), which is the honest bound for pinning;
/// `logical` is the OS-reported online count.  On platforms without an
/// affinity API both fall back to the OpenMP/STL estimate and
/// `pinning_supported` is false, so callers can fall back loudly instead
/// of silently pretending placement happened.
struct cpu_topology {
  int logical = 1;                ///< online logical CPUs
  int allowed = 1;                ///< CPUs this process may run on
  bool pinning_supported = false; ///< pin_current_thread can succeed here
};

[[nodiscard]] inline cpu_topology probe_topology() {
  cpu_topology topo;
#if defined(__linux__)
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  topo.logical = online > 0 ? static_cast<int>(online) : 1;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    topo.allowed = count > 0 ? count : 1;
    topo.pinning_supported = true;
  } else {
    topo.allowed = topo.logical;
  }
#else
  topo.logical = hardware_threads() > 0 ? hardware_threads() : 1;
  topo.allowed = topo.logical;
#endif
  return topo;
}

/// Pins the calling thread to the `index`-th CPU of the process's allowed
/// set (wrapping modulo the set size).  Returns true when the affinity
/// call succeeded; false where unsupported or refused, so the caller can
/// report the fallback instead of assuming placement took effect.
[[nodiscard]] inline bool pin_current_thread(std::size_t index) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return false;
  }
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) {
    return false;
  }
  // Walk to the (index mod count)-th set bit: pinning targets must come
  // from the allowed mask or pthread_setaffinity_np fails outright.
  // (Unsigned loop indices: the glibc CPU_* macros index bit words and
  // warn under -Wsign-conversion when handed an int.)
  std::size_t want = index % static_cast<std::size_t>(count);
  std::size_t target = CPU_SETSIZE;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      if (want == 0) {
        target = cpu;
        break;
      }
      --want;
    }
  }
  if (target >= CPU_SETSIZE) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
#else
  (void)index;
  return false;  // no portable affinity API: fall back (loudly) upstream
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
