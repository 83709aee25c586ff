#pragma once
// Portable implementations of the kernel_set operations, shared by the
// scalar tier (verbatim) and by the vector tiers for the entry points
// their ISA has no profitable instruction for (e.g. AVX2 has no scatter).
// Written with __restrict qualification and simple loop-carried index
// updates so the compiler can auto-vectorize the affine forms when the
// translation unit's ISA flags allow it — the scalar TU compiles with the
// project baseline, the AVX2/AVX-512 TUs with their per-TU -m flags, so
// even the "fallback" entry points improve per tier.

#include <cstdint>
#include <cstring>

#include "cpu/kernels/kernel_set.hpp"

namespace inplace::kernels::detail {

inline void copy_portable(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
}

/// Portable tiers have no non-temporal stores: both streaming entry
/// points degrade to the temporal copy, and fence is a no-op.
inline void stream_portable(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
}

inline void fence_noop() {}

/// dst[j] = src[(start + j*step) mod mod] with the index advanced by one
/// add and a conditional subtract per element (idx stays in [0, mod)
/// because step < mod).
template <typename U>
inline void gather_affine_portable(U* __restrict dst,
                                   const U* __restrict src,
                                   std::size_t count, std::uint64_t start,
                                   std::uint64_t step, std::uint64_t mod) {
  std::uint64_t idx = start;
  for (std::size_t j = 0; j < count; ++j) {
    dst[j] = src[idx];
    idx += step;
    if (idx >= mod) {
      idx -= mod;
    }
  }
}

template <typename U>
inline void scatter_affine_portable(U* __restrict dst,
                                    const U* __restrict src,
                                    std::size_t count, std::uint64_t start,
                                    std::uint64_t step, std::uint64_t mod) {
  std::uint64_t idx = start;
  for (std::size_t j = 0; j < count; ++j) {
    dst[idx] = src[j];
    idx += step;
    if (idx >= mod) {
      idx -= mod;
    }
  }
}

/// dst[j] = src[offs[j]].  dst may equal src under the forward-sweep
/// no-read-after-write pattern (see kernel_set); the scalar loop reads
/// each slot before any j' > j writes it, so element order is safe.
template <typename U>
inline void gather_index_portable(U* dst, const U* src,
                                  const std::uint64_t* __restrict offs,
                                  std::size_t count, bool /*stream_dst*/) {
  for (std::size_t j = 0; j < count; ++j) {
    dst[j] = src[offs[j]];
  }
}

/// Prefetch lookahead for the affine gather/scatter index streams,
/// expressed in elements.  Sized so the prefetches run roughly two DRAM
/// latencies ahead of the gather loop at one element per cycle-ish
/// throughput; per-width because a 64-bit lane covers twice the bytes.
inline constexpr std::size_t affine_prefetch_dist_u32 = 128;
inline constexpr std::size_t affine_prefetch_dist_u64 = 64;

/// Walks the same (start + j*step) mod mod index stream as the affine
/// kernels but `dist` elements ahead, issuing one read prefetch per
/// element.  Because the stream wraps inside [0, mod), every prefetch
/// lands inside the row even past the segment end — no bounds guard
/// needed.  When the stride is under a cache line, consecutive elements
/// share lines and one prefetch per `lanes` block suffices.  Pure
/// address arithmetic (never dereferences), so it takes an untyped base
/// plus the element size.
struct affine_prefetcher {
  const char* src_;
  std::size_t esize_;
  std::uint64_t idx_;
  std::uint64_t step_;
  std::uint64_t mod_;
  bool per_lane_;

  affine_prefetcher(const void* src, std::size_t elem_size,
                    std::uint64_t start, std::uint64_t step,
                    std::uint64_t mod, std::size_t dist)
      : src_(static_cast<const char*>(src)),
        esize_(elem_size),
        idx_((start + (dist % mod) * step % mod) % mod),
        step_(step),
        mod_(mod),
        per_lane_(step * elem_size >= 64) {}

  /// Prefetches the `lanes` elements `dist` ahead of the current block
  /// and advances by `lanes`.
  inline void issue(std::size_t lanes) {
    std::uint64_t p = idx_;
    if (per_lane_) {
      for (std::size_t l = 0; l < lanes; ++l) {
        prefetch_read(src_ + p * esize_);
        p += step_;
        if (p >= mod_) {
          p -= mod_;
        }
      }
      idx_ = p;
    } else {
      prefetch_read(src_ + p * esize_);
      idx_ += lanes * step_ % mod_;
      if (idx_ >= mod_) {
        idx_ -= mod_;
      }
    }
  }
};

/// Assembles a kernel_set whose every slot is the portable implementation
/// compiled in the including translation unit (so each tier's fallbacks
/// still benefit from that TU's ISA flags via auto-vectorization).
inline kernel_set make_portable_set(tier t) {
  kernel_set ks;
  ks.t = t;
  ks.copy = &copy_portable;
  ks.stream = &stream_portable;
  ks.stream_subrow = &stream_portable;
  ks.fence = &fence_noop;
  ks.gather_affine_u32 = &gather_affine_portable<u32lane>;
  ks.gather_affine_u64 = &gather_affine_portable<u64lane>;
  ks.scatter_affine_u32 = &scatter_affine_portable<u32lane>;
  ks.scatter_affine_u64 = &scatter_affine_portable<u64lane>;
  ks.gather_index_u32 = &gather_index_portable<u32lane>;
  ks.gather_index_u64 = &gather_index_portable<u64lane>;
  return ks;
}

}  // namespace inplace::kernels::detail
