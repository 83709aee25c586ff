#pragma once
// The hot-path kernel layer: a per-tier vtable of the primitive memory
// operations the engines execute per element — contiguous copies
// (temporal and non-temporal), the strength-reduced affine gather/scatter
// behind the Eq. 24/31 row shuffles, the indexed row gather behind the
// skinny engine's fine rotation, and the masked-blend network behind the
// blocked engine's Eq. 26/32-34 fine rotation — selected once at plan
// time by runtime CPU feature detection.
//
// Every tier implements the same contract bit-exactly (the operations are
// pure permutations), so forced-scalar and native runs of any engine
// produce identical buffers; tests sweep both.  Each non-scalar tier lives
// in its own translation unit compiled with per-TU -m<isa> flags
// (src/CMakeLists.txt); a tier whose instructions the build compiler or
// the running CPU cannot provide resolves to the next tier down, ending at
// the always-available scalar set.
//
// Aliasing note: the u32/u64 entry points move raw 4/8-byte lanes.  The
// engines pass float/double/int32_t/... buffers through the may_alias
// typedefs below, so the kernels never introduce type-based aliasing UB.

#include <cstddef>
#include <cstdint>

#include "cpu/kernels/tier.hpp"

namespace inplace::kernels {

/// 4/8-byte lanes that may alias any element type of the same width
/// (float, int32_t, double, ...): the kernels are bit movers.
using u32lane = std::uint32_t __attribute__((may_alias));
using u64lane = std::uint64_t __attribute__((may_alias));

/// One tier's implementations.  All dst/src pairs must not overlap (the
/// engines always move matrix <-> scratch or disjoint sub-rows); the
/// sanctioned same-buffer uses are gather_index_* with dst == src where
/// the offsets never read a slot an earlier chunk of the same call wrote
/// (the skinny fine_rotate_rows forward sweep guarantees it), and
/// rotate_rows_*, which works in place by contract.
struct kernel_set {
  tier t = tier::scalar;

  /// Contiguous copy, temporal stores.
  void (*copy)(void* dst, const void* src, std::size_t bytes);

  /// Contiguous copy with non-temporal stores on the cache-line-aligned
  /// interior; self-fencing (outstanding NT stores are globally visible
  /// when it returns).  Meant for pass-sized copy-backs whose destination
  /// lines will not be re-read before eviction.
  void (*stream)(void* dst, const void* src, std::size_t bytes);

  /// Sub-row copy with non-temporal interior stores and NO fence: callers
  /// issue many per pass (cycle-following moves) and publish once with
  /// fence().  Falls back to a temporal copy below one cache line.
  void (*stream_subrow)(void* dst, const void* src, std::size_t bytes);

  /// Publishes all outstanding non-temporal stores (sfence on x86).  Must
  /// run before any cross-thread handoff that is not itself NT-aware —
  /// the engines call it at the end of each parallel chunk that streamed.
  void (*fence)();

  /// dst[j] = src[(start + j*step) mod mod] for j in [0, count) — the
  /// Eq. 31 gather with its index stream strength-reduced to an add and a
  /// conditional subtract per lane, exactly as d_prime_stepper does.
  /// Preconditions: start < mod, step < mod, count <= mod, and for the
  /// u32 form mod < 2^31 (hardware gathers sign-extend 32-bit indices).
  void (*gather_affine_u32)(u32lane* dst, const u32lane* src,
                            std::size_t count, std::uint64_t start,
                            std::uint64_t step, std::uint64_t mod);
  void (*gather_affine_u64)(u64lane* dst, const u64lane* src,
                            std::size_t count, std::uint64_t start,
                            std::uint64_t step, std::uint64_t mod);

  /// dst[(start + j*step) mod mod] = src[j] for j in [0, count) — the
  /// Eq. 24 scatter form.  Same preconditions as gather_affine.
  void (*scatter_affine_u32)(u32lane* dst, const u32lane* src,
                             std::size_t count, std::uint64_t start,
                             std::uint64_t step, std::uint64_t mod);
  void (*scatter_affine_u64)(u64lane* dst, const u64lane* src,
                             std::size_t count, std::uint64_t start,
                             std::uint64_t step, std::uint64_t mod);

  /// dst[j] = src[offs[j]] for j in [0, count) (element offsets) — the
  /// fine-rotation gather, offsets precomputed once per column group.
  /// stream_dst selects non-temporal stores (not fenced; pair with
  /// fence()).  dst == src is allowed under the no-read-after-write
  /// pattern documented on the struct.  Issues no prefetch: every caller
  /// gathers from a window of rows its sweep already holds in cache.
  void (*gather_index_u32)(u32lane* dst, const u32lane* src,
                           const std::uint64_t* offs, std::size_t count,
                           bool stream_dst);
  void (*gather_index_u64)(u64lane* dst, const u64lane* src,
                           const std::uint64_t* offs, std::size_t count,
                           bool stream_dst);

  /// The fine rotation's unwrapped rows as a log2 barrel shift (Section
  /// 6.2's bound): in a `width`-lane column group whose rows lie `stride`
  /// lanes apart, row i lane jj takes the value row i + res[jj] held on
  /// entry, for every i in [0, rows).  Each vector of lanes moves by its
  /// smallest residual plus per-lane remainders below the lane count V,
  /// which log2 V masked blends (vpblendm{d,q}, vpblendvb) apply to
  /// blocks of V rows held in registers; a vector whose residuals span V
  /// or more takes a scalar loop.  Preconditions: rows + max(res) <=
  /// avail (rows [0, avail) are readable).  Writes only rows [0, rows)
  /// and lanes [0, width); allocates nothing.  Null on tiers without a
  /// blend network (scalar, NEON): callers keep the scalar loop.
  void (*rotate_rows_u32)(u32lane* base, std::size_t rows, std::size_t avail,
                          std::size_t stride, std::size_t width,
                          const std::uint64_t* res) = nullptr;
  void (*rotate_rows_u64)(u64lane* base, std::size_t rows, std::size_t avail,
                          std::size_t stride, std::size_t width,
                          const std::uint64_t* res) = nullptr;

  /// In-register tile transpose (the Section 6.2 ladder, generated from
  /// src/simd/static_transpose.hpp's schedules): applies
  /// static_r2c<nregs, tile_lanes> (forward) or its inverse
  /// static_c2r (inverse) in place to each of nblocks contiguous blocks
  /// of nregs * tile_lanes lanes.  Null on tiers without an in-register
  /// implementation (scalar, stub builds); plan-time gating checks
  /// tile_lanes/tile_max_regs before selecting the tile path.
  /// Preconditions: 2 <= nregs <= tile_max_regs for the lane width.
  void (*tile_pass_u32)(u32lane* data, std::size_t nregs,
                        std::size_t nblocks, bool forward) = nullptr;
  void (*tile_pass_u64)(u64lane* data, std::size_t nregs,
                        std::size_t nblocks, bool forward) = nullptr;

  /// Vector width (lanes per register) and register budget of the tile
  /// passes above, per lane width; 0 when unimplemented.
  std::uint16_t tile_lanes_u32 = 0;
  std::uint16_t tile_lanes_u64 = 0;
  std::uint16_t tile_max_regs_u32 = 0;
  std::uint16_t tile_max_regs_u64 = 0;
};

/// Software prefetch hints for the irregular streams the hardware
/// prefetchers miss (cycle-following hops, wrapped gathers).  Compile to
/// prefetcht0 / prfm on the vector tiers and to nothing where unsupported.
inline void prefetch_read(const void* p) { __builtin_prefetch(p, 0, 3); }
inline void prefetch_write(void* p) { __builtin_prefetch(p, 1, 3); }

/// The best tier the running CPU supports among those compiled into this
/// binary (cpuid/xgetbv on x86-64, baseline NEON on aarch64).  Cached
/// after the first call; never returns tier::automatic.
[[nodiscard]] tier native_tier();

/// True when `t` is compiled into this binary AND the running CPU can
/// execute it.  tier::scalar is always available.
[[nodiscard]] bool tier_available(tier t);

/// Resolves a requested tier to a concrete available one:
///   1. the INPLACE_FORCE_KERNEL_TIER environment variable, when set to
///      scalar|avx2|avx512|neon|native|inreg or <tier>-inreg, overrides
///      `requested` (unknown values are ignored with a one-time
///      warning); bare "inreg" forces the native tier and the
///      in-register tile path, "<tier>-inreg" pins both;
///   2. tier::automatic becomes native_tier();
///   3. an unavailable tier degrades down its family (avx512 -> avx2 ->
///      scalar, neon -> scalar).
/// Never returns tier::automatic.
[[nodiscard]] tier resolve_tier(tier requested);

/// True when INPLACE_FORCE_KERNEL_TIER requests the in-register tile
/// path ("inreg" or any "<tier>-inreg" form).  Forcing drops the
/// plan-time profitability condition (tall-shape check) but never the
/// correctness gates (divisibility, register budget): a forced-inreg
/// plan on an ineligible shape simply runs without the tile path, same
/// as forcing a tier the CPU lacks degrades.
[[nodiscard]] bool forced_tile_mode();

/// The kernel vtable for a concrete tier; unavailable tiers resolve to
/// the nearest available one (so set_for(resolve_tier(t)) never faults).
[[nodiscard]] const kernel_set& set_for(tier t);

/// Data cache sizes probed once at startup (sysconf where available, with
/// conservative fallbacks).  The streaming-store threshold derives from
/// l3_bytes.
struct cache_sizes {
  std::size_t l1_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  std::size_t l3_bytes = 32 * 1024 * 1024;
};
[[nodiscard]] const cache_sizes& probed_caches();

/// Byte size past which a plan's working set no longer fits in cache and
/// non-temporal copy-back / rotation stores pay off (default: the probed
/// L3 size; override with the INPLACE_NT_THRESHOLD environment variable,
/// in bytes — tests force 0 to exercise the streaming paths on small
/// shapes).
[[nodiscard]] std::size_t streaming_threshold();

/// True when a plan moving `working_set_bytes` on tier `t` should use
/// non-temporal stores: the tier has NT instructions and the working set
/// exceeds streaming_threshold().
[[nodiscard]] bool streaming_profitable(std::size_t working_set_bytes,
                                        tier t);

/// Byte size the row shuffle's O(n) scratch line must reach before the
/// affine gather/scatter kernels engage (default: the probed L2 size;
/// override with INPLACE_ROW_KERNEL_MIN_LINE, in bytes — tests force 0).
/// Rationale: the scattered side of a row shuffle is the scratch line
/// itself.  While it is cache-resident there is no miss latency for a
/// hardware gather/scatter to hide, and its per-lane overhead loses to
/// the scalar stepper; the vector form only pays once the line spills.
[[nodiscard]] std::size_t row_kernel_min_line_bytes();

// --- typed convenience wrappers used by the engine templates ---------------

/// True when sizeof(T) has a vectorizable gather/scatter lane width.
template <typename T>
inline constexpr bool has_gather_lanes = sizeof(T) == 4 || sizeof(T) == 8;

/// Minimum bytes per streamed copy: each self-fencing stream() pays an
/// sfence, so tiny copies (the skinny engine's whole "rows" can be one
/// or two cache lines) must amortize it or skip streaming — measured
/// 2.6x *slower* end-to-end on a 2621440x16 skinny transpose when every
/// 128 B row copy-back streamed-and-fenced.
inline constexpr std::size_t stream_min_copy_bytes = 4096;

/// Contiguous copy of `count` elements; `stream` selects the self-fencing
/// non-temporal form (honored only past stream_min_copy_bytes).
template <typename T>
inline void copy_elems(const kernel_set& ks, T* dst, const T* src,
                       std::size_t count, bool stream) {
  const std::size_t bytes = count * sizeof(T);
  (stream && bytes >= stream_min_copy_bytes ? ks.stream : ks.copy)(dst, src,
                                                                   bytes);
}

template <typename T>
inline void gather_affine(const kernel_set& ks, T* dst, const T* src,
                          std::size_t count, std::uint64_t start,
                          std::uint64_t step, std::uint64_t mod) {
  if constexpr (sizeof(T) == 4) {
    ks.gather_affine_u32(reinterpret_cast<u32lane*>(dst),
                         reinterpret_cast<const u32lane*>(src), count, start,
                         step, mod);
  } else {
    static_assert(sizeof(T) == 8, "gather lanes are 4 or 8 bytes");
    ks.gather_affine_u64(reinterpret_cast<u64lane*>(dst),
                         reinterpret_cast<const u64lane*>(src), count, start,
                         step, mod);
  }
}

template <typename T>
inline void scatter_affine(const kernel_set& ks, T* dst, const T* src,
                           std::size_t count, std::uint64_t start,
                           std::uint64_t step, std::uint64_t mod) {
  if constexpr (sizeof(T) == 4) {
    ks.scatter_affine_u32(reinterpret_cast<u32lane*>(dst),
                          reinterpret_cast<const u32lane*>(src), count, start,
                          step, mod);
  } else {
    static_assert(sizeof(T) == 8, "scatter lanes are 4 or 8 bytes");
    ks.scatter_affine_u64(reinterpret_cast<u64lane*>(dst),
                          reinterpret_cast<const u64lane*>(src), count, start,
                          step, mod);
  }
}

/// Lane width of the in-register tile pass for element type T (0 when
/// the tier has none).
template <typename T>
inline std::uint16_t tile_lanes(const kernel_set& ks) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8,
                "tile lanes are 4 or 8 bytes");
  return sizeof(T) == 4 ? ks.tile_lanes_u32 : ks.tile_lanes_u64;
}

/// Register budget of the in-register tile pass for element type T.
template <typename T>
inline std::uint16_t tile_max_regs(const kernel_set& ks) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8,
                "tile lanes are 4 or 8 bytes");
  return sizeof(T) == 4 ? ks.tile_max_regs_u32 : ks.tile_max_regs_u64;
}

/// In-place tile pass over nblocks contiguous blocks of
/// nregs * tile_lanes<T> elements.  Requires the tier to implement the
/// pass (tile_lanes<T>(ks) != 0).
template <typename T>
inline void tile_pass(const kernel_set& ks, T* data, std::size_t nregs,
                      std::size_t nblocks, bool forward) {
  if constexpr (sizeof(T) == 4) {
    ks.tile_pass_u32(reinterpret_cast<u32lane*>(data), nregs, nblocks,
                     forward);
  } else {
    static_assert(sizeof(T) == 8, "tile lanes are 4 or 8 bytes");
    ks.tile_pass_u64(reinterpret_cast<u64lane*>(data), nregs, nblocks,
                     forward);
  }
}

/// True when the tier implements rotate_rows for element type T.
template <typename T>
[[nodiscard]] inline bool has_rotate_rows(const kernel_set& ks) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8,
                "blend lanes are 4 or 8 bytes");
  return (sizeof(T) == 4 ? ks.rotate_rows_u32 != nullptr
                         : ks.rotate_rows_u64 != nullptr);
}

/// The fine rotation's unwrapped rows through the tier's blend network
/// (kernel_set::rotate_rows_*).  Requires has_rotate_rows<T>(ks).
template <typename T>
inline void rotate_rows(const kernel_set& ks, T* base, std::size_t rows,
                        std::size_t avail, std::size_t stride,
                        std::size_t width, const std::uint64_t* res) {
  if constexpr (sizeof(T) == 4) {
    ks.rotate_rows_u32(reinterpret_cast<u32lane*>(base), rows, avail, stride,
                       width, res);
  } else {
    static_assert(sizeof(T) == 8, "blend lanes are 4 or 8 bytes");
    ks.rotate_rows_u64(reinterpret_cast<u64lane*>(base), rows, avail, stride,
                       width, res);
  }
}

template <typename T>
inline void gather_index(const kernel_set& ks, T* dst, const T* src,
                         const std::uint64_t* offs, std::size_t count,
                         bool stream_dst) {
  if constexpr (sizeof(T) == 4) {
    ks.gather_index_u32(reinterpret_cast<u32lane*>(dst),
                        reinterpret_cast<const u32lane*>(src), offs, count,
                        stream_dst);
  } else {
    static_assert(sizeof(T) == 8, "gather lanes are 4 or 8 bytes");
    ks.gather_index_u64(reinterpret_cast<u64lane*>(dst),
                        reinterpret_cast<const u64lane*>(src), offs, count,
                        stream_dst);
  }
}

}  // namespace inplace::kernels
