#include "core/context.hpp"

#include <algorithm>

#include "util/threads.hpp"

namespace inplace {

namespace detail {

std::size_t context_key_hash::operator()(
    const context_key& k) const noexcept {
  // FNV-1a over the key fields; the packed byte word keeps the four
  // enum-ish fields from washing each other out.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.rows);
  mix(k.cols);
  mix(k.elem_size);
  mix(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(
      k.type_tag)));
  mix((std::uint64_t{k.tile} << 40) | (std::uint64_t{k.kernel} << 32) |
      (std::uint64_t{k.mode} << 24) | (std::uint64_t{k.order} << 16) |
      (std::uint64_t{k.alg} << 8) | std::uint64_t{k.engine});
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.threads)));
  mix(k.block_bytes);
  // permute_nd identity: the normalized extents and the packed perm.
  // nd_rank bounds the loop so the 2-D modes (rank 0) pay nothing extra
  // beyond one mix of the packed word.
  for (std::size_t a = 0; a < k.nd_rank; ++a) {
    mix(k.nd_dims[a]);
  }
  mix((std::uint64_t{k.nd_rank} << 32) | std::uint64_t{k.nd_perm});
  return static_cast<std::size_t>(h);
}

}  // namespace detail

transpose_context::transpose_context(const context_options& copts)
    : max_plans_(std::max<std::size_t>(1, copts.max_plans)),
      max_arenas_per_plan_(std::max<std::size_t>(1, copts.max_arenas_per_plan)),
      max_cached_bytes_(copts.max_cached_bytes),
      worker_count_(copts.workers),
      max_queue_(std::max<std::size_t>(1, copts.max_queue)) {}

transpose_context::~transpose_context() {
  // Deterministic teardown: fail queued jobs, finish in-flight ones, join
  // the workers.  Every future submit() ever returned is settled by now.
  shutdown(/*drain_pending=*/false);
}

std::shared_ptr<detail::context_entry> transpose_context::acquire_entry(
    const detail::context_key& key, bool& hit) {
  util::mutex_guard lock(cache_mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    hit = true;
    plan_hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->entry;
  }
  hit = false;
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  while (map_.size() >= max_plans_) {
    evict_locked(std::prev(lru_.end()));
  }
  lru_.push_front({key, std::make_shared<detail::context_entry>()});
  map_.emplace(key, lru_.begin());
  return lru_.front().entry;
}

void transpose_context::evict_locked(detail::context_lru_iter it) {
  // "ctx.cache.evict" models an eviction-path fault (e.g. a failing
  // bookkeeping allocation).  Fires before any mutation so a fault
  // leaves the cache — map, LRU, byte accounting — fully intact.
  INPLACE_FAILPOINT("ctx.cache.evict");
  const std::shared_ptr<detail::context_entry> entry = it->entry;
  map_.erase(it->key);
  lru_.erase(it);
  plan_evictions_.fetch_add(1, std::memory_order_relaxed);

  // Mark the entry dead and release its stored arenas; executions holding
  // the entry finish on their checked-out arena and then drop it (the
  // evicted flag blocks recycling into the orphaned entry).
  std::size_t bytes = 0;
  std::size_t dropped = 0;
  {
    util::mutex_guard elock(entry->mu);
    entry->evicted = true;
    for (const auto& [arena, b] : entry->arenas) {
      bytes += b;
      ++dropped;
    }
    entry->arenas.clear();
  }
  retained_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  arenas_dropped_.fetch_add(dropped, std::memory_order_relaxed);
}

context_stats transpose_context::stats() const {
  context_stats s;
  // Settle-side counters before enqueue-side ones, for the same
  // monotonic-snapshot reason as context_workers::qos_stats(): reading
  // jobs_cancelled (a settled count) before async_jobs can only
  // undercount settles relative to the enqueues read after it.
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_acquire);
  detail::context_workers* pool = nullptr;
  {
    util::mutex_guard lock(workers_mu_);
    pool = workers_.get();
  }
  if (pool != nullptr) {
    s.qos = pool->qos_stats();
  }
  s.async_jobs = async_jobs_.load(std::memory_order_relaxed);
  s.executions = executions_.load(std::memory_order_relaxed);
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  s.plan_evictions = plan_evictions_.load(std::memory_order_relaxed);
  s.arenas_created = arenas_created_.load(std::memory_order_relaxed);
  s.arenas_reused = arenas_reused_.load(std::memory_order_relaxed);
  s.arenas_dropped = arenas_dropped_.load(std::memory_order_relaxed);
  s.arenas_degraded = arenas_degraded_.load(std::memory_order_relaxed);
  return s;
}

std::size_t transpose_context::cached_plans() const {
  util::mutex_guard lock(cache_mu_);
  return map_.size();
}

std::size_t transpose_context::cached_bytes() const {
  return retained_bytes_.load(std::memory_order_relaxed);
}

void transpose_context::clear() {
  util::mutex_guard lock(cache_mu_);
  while (!lru_.empty()) {
    evict_locked(std::prev(lru_.end()));
  }
}

void transpose_context::shutdown(bool drain_pending) {
  detail::context_workers* pool = nullptr;
  {
    util::mutex_guard lock(workers_mu_);
    shutdown_ = true;  // later submit()s fail before touching the pool
    pool = workers_.get();
  }
  if (pool == nullptr) {
    return;  // never went async; nothing to stop
  }
  const std::size_t failed = pool->shutdown(drain_pending);
  jobs_cancelled_.fetch_add(failed, std::memory_order_release);
}

std::size_t transpose_context::cancel_pending() {
  detail::context_workers* pool = nullptr;
  {
    util::mutex_guard lock(workers_mu_);
    pool = workers_.get();
  }
  if (pool == nullptr) {
    return 0;
  }
  const std::size_t failed = pool->cancel_pending();
  jobs_cancelled_.fetch_add(failed, std::memory_order_release);
  return failed;
}

detail::context_workers& transpose_context::workers() {
  util::mutex_guard lock(workers_mu_);
  if (shutdown_) {
    throw context_shutdown(
        "inplace: submit on a transpose_context after shutdown()");
  }
  if (!workers_) {
    detail::context_workers::config cfg;
    cfg.count = worker_count_;
    if (cfg.count == 0) {
      // Small default: enough to overlap planning/allocation with engine
      // execution without oversubscribing the OpenMP pool badly.
      cfg.count = std::clamp<std::size_t>(
          static_cast<std::size_t>(util::hardware_threads()), 2, 4);
    }
    cfg.max_queue = max_queue_;
    workers_ = std::make_unique<detail::context_workers>(cfg);
  }
  return *workers_;
}

transpose_context& default_context() {
  // Intentionally leaked: worker threads and cached arenas must outlive
  // any static-destruction-order transposes, and the OS reclaims the
  // memory anyway.
  static auto* ctx = new transpose_context();
  return *ctx;
}

}  // namespace inplace
