#pragma once
// Portable implementations of the kernel_set operations, shared by the
// scalar tier (verbatim) and by the vector tiers for the entry points
// their ISA has no profitable instruction for (e.g. AVX2 has no scatter).
// Written with __restrict qualification and simple loop-carried index
// updates so the compiler can auto-vectorize the affine forms when the
// translation unit's ISA flags allow it — the scalar TU compiles with the
// project baseline, the AVX2/AVX-512 TUs with their per-TU -m flags, so
// even the "fallback" entry points improve per tier.

#include <algorithm>
#include <bit>
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

/// Lanes per tile of the rotate_rows blend network: the per-vector
/// offsets, spans and stage masks of one tile live on the stack (about
/// 3 KiB at 8 lanes per vector).  1024 lanes cover a 4 KiB f32 or 8 KiB
/// f64 sub-row in one tile; wider groups run tile after tile.
inline constexpr std::size_t network_tile_lanes = 1024;

/// Rows past the farthest row a block reads whose whole sub-row the
/// network prefetches before the block runs (see rotate_rows_blocks).
inline constexpr std::size_t network_prefetch_rows = 16;

/// One block of the rotate_rows network: `out` (<= V) rows of one
/// vector column, dst row dst0 + t taking lane l of source row
/// src0 + t + d_l, where d_l < 2^S has its bit b in mask[b].  The block
/// loads the out + 2^S - 1 source rows it draws from into registers (rows
/// at or past `avail` read as zero: no result draws from them), runs S
/// steps of masked blends, step b moving register t + 2^b into register
/// t under mask[b], and stores `out` registers.  `Full` fixes out = V
/// (the loops unroll and the registers stay in registers); `Part` moves
/// only the vector's first `cnt` lanes.
template <typename Ops, unsigned S, bool Full, bool Part>
inline void network_block(typename Ops::lane* col, std::size_t stride,
                          std::size_t dst0, std::size_t src0,
                          std::size_t out, std::size_t avail,
                          const std::uint32_t* mask, std::size_t cnt) {
  constexpr std::size_t V = Ops::lanes;
  constexpr std::size_t R = V + (std::size_t{1} << S) - 1;
  const std::size_t rows = Full ? R : out + (std::size_t{1} << S) - 1;
  const std::size_t loads = std::min(rows, avail - src0);
  typename Ops::vec r[R];
  for (std::size_t t = 0; t < rows; ++t) {
    if (t >= loads) {
      r[t] = Ops::zero();
    } else if constexpr (Part) {
      r[t] = Ops::load_n(col + (src0 + t) * stride, cnt);
    } else {
      r[t] = Ops::load(col + (src0 + t) * stride);
    }
  }
  for (unsigned b = 0; b < S; ++b) {
    const auto k = Ops::make_mask(mask[b]);
    const std::size_t hop = std::size_t{1} << b;
    // Step b feeds results t < out from registers below rows + 1 - 2^(b+1).
    const std::size_t last = rows + 1 - 2 * hop;
    for (std::size_t t = 0; t < last; ++t) {
      r[t] = Ops::blend(r[t], r[t + hop], k);
    }
  }
  for (std::size_t t = 0; t < (Full ? V : out); ++t) {
    typename Ops::lane* p = col + (dst0 + t) * stride;
    if constexpr (Part) {
      Ops::store_n(p, r[t], cnt);
    } else {
      Ops::store(p, r[t]);
    }
  }
}

/// Picks network_block's instance for a vector whose residual span has
/// `stages` bits (stages <= S).
template <typename Ops, unsigned S>
inline void network_dispatch(unsigned stages, bool full, bool part,
                             typename Ops::lane* col, std::size_t stride,
                             std::size_t dst0, std::size_t src0,
                             std::size_t out, std::size_t avail,
                             const std::uint32_t* mask, std::size_t cnt) {
  if constexpr (S > 0) {
    if (stages < S) {
      network_dispatch<Ops, S - 1>(stages, full, part, col, stride, dst0,
                                   src0, out, avail, mask, cnt);
      return;
    }
  }
  if (full && !part) {
    network_block<Ops, S, true, false>(col, stride, dst0, src0, out, avail,
                                       mask, cnt);
  } else if (full) {
    network_block<Ops, S, true, true>(col, stride, dst0, src0, out, avail,
                                      mask, cnt);
  } else if (!part) {
    network_block<Ops, S, false, false>(col, stride, dst0, src0, out, avail,
                                        mask, cnt);
  } else {
    network_block<Ops, S, false, true>(col, stride, dst0, src0, out, avail,
                                       mask, cnt);
  }
}

/// The rotate_rows network shared by the vector tiers, written against a
/// tier's vector operations `Ops`:
///   lane, vec, lanes (V, a power of two), load/store (unaligned, V
///   lanes), load_n/store_n (a vector's first n lanes, touching no
///   other), zero(), make_mask(bits) and blend(a, b, k) (lanes whose bit
///   is set in k take b).
///
/// Each vector column v of the group splits its residuals into a common
/// row offset lo_v (their minimum) and per-lane remainders d_l below
/// 2^S, S = log2 V when the span allows.  Blocks of V output rows then
/// run in row order, every vector column once per block
/// (network_block): no row of a column is written before every block
/// that reads it has loaded it, since block i0 reads rows at or past i0
/// and writes rows [i0, i0 + V).  Only rows [0, rows) are written.  A
/// vector whose residual span reaches 2^S falls back to the scalar
/// per-lane loop.
///
/// Row r's lines are first read by the vector with the largest lo_v and
/// last by the one with the smallest, max lo_v rows of sweep later, one
/// line at a time: page-strided single-line misses the hardware
/// prefetchers do not follow.  So each block first prefetches the whole
/// sub-row of the V rows entering network_prefetch_rows past its reach,
/// and the window of rows in flight (about max res + 2V rows of `width`
/// lanes, the fine window derived_block_bytes sizes against L2) holds
/// them until the last vector reads them (EXPERIMENTS.md, "Where the
/// blocked column passes wait").
template <typename Ops>
void rotate_rows_blocks(typename Ops::lane* base, std::size_t rows,
                        std::size_t avail, std::size_t stride,
                        std::size_t width, const std::uint64_t* res) {
  constexpr std::size_t V = Ops::lanes;
  constexpr auto S = static_cast<unsigned>(std::countr_zero(V));
  constexpr std::size_t kVecs = network_tile_lanes / V;
  std::uint64_t lo[kVecs];
  unsigned span[kVecs];
  std::uint32_t mask[kVecs][S > 0 ? S : 1];
  for (std::size_t t0 = 0; t0 < width; t0 += network_tile_lanes) {
    const std::size_t lanes = std::min(network_tile_lanes, width - t0);
    const std::size_t vecs = (lanes + V - 1) / V;
    const std::uint64_t* tres = res + t0;
    for (std::size_t v = 0; v < vecs; ++v) {
      const std::size_t first = v * V;
      const std::size_t cnt = std::min(V, lanes - first);
      std::uint64_t low = tres[first];
      std::uint64_t high = tres[first];
      for (std::size_t l = 1; l < cnt; ++l) {
        low = std::min(low, tres[first + l]);
        high = std::max(high, tres[first + l]);
      }
      lo[v] = low;
      span[v] = static_cast<unsigned>(std::bit_width(high - low));
      for (unsigned b = 0; b < S && b < span[v]; ++b) {
        std::uint32_t bits = 0;
        for (std::size_t l = 0; l < cnt; ++l) {
          bits |= static_cast<std::uint32_t>((tres[first + l] - low) >> b & 1)
                  << l;
        }
        mask[v][b] = bits;
      }
    }
    // The farthest row offset any vector's block reads.
    std::size_t reach = 0;
    for (std::size_t v = 0; v < vecs; ++v) {
      reach = std::max<std::size_t>(
          reach, lo[v] + (std::size_t{1} << std::min(span[v], S)) - 1);
    }
    typename Ops::lane* tile = base + t0;
    const std::size_t row_bytes = lanes * sizeof(typename Ops::lane);
    for (std::size_t i0 = 0; i0 < rows; i0 += V) {
      const std::size_t out = std::min(V, rows - i0);
      const std::size_t p1 =
          std::min(i0 + reach + network_prefetch_rows + V, avail);
      for (std::size_t r = i0 + reach + network_prefetch_rows; r < p1; ++r) {
        const auto* row = reinterpret_cast<const char*>(tile + r * stride);
        for (std::size_t b = 0; b < row_bytes; b += 64) {
          prefetch_read(row + b);
        }
      }
      for (std::size_t v = 0; v < vecs; ++v) {
        if (lo[v] == 0 && span[v] == 0) {
          continue;  // every lane of the vector keeps its row
        }
        const std::size_t cnt = std::min(V, lanes - v * V);
        typename Ops::lane* col = tile + v * V;
        if (span[v] > S) {
          const std::uint64_t* vres = tres + v * V;
          for (std::size_t i = i0; i < i0 + out; ++i) {
            for (std::size_t l = 0; l < cnt; ++l) {
              col[i * stride + l] = col[(i + vres[l]) * stride + l];
            }
          }
          continue;
        }
        network_dispatch<Ops, S>(span[v], out == V, cnt < V, col, stride, i0,
                                 i0 + lo[v], out, avail, mask[v], cnt);
      }
    }
  }
}

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
