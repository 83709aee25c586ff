// AVX-512 tier: 512-bit gathers AND scatters (16 x u32 / 8 x u64), full
// 64-byte non-temporal streaming stores, and unsigned 64-bit min for the
// branch-free modular index wrap (_mm512_min_epu64, which AVX2 lacks).
// Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq for this TU
// only; excluded when the configure-time compile check fails, in which
// case the stub at the bottom reports the tier as not built.

#include "cpu/kernels/kernels_common.hpp"
#include "cpu/kernels/tile_inreg.hpp"

#if defined(INPLACE_KERNEL_COMPILE_AVX512)

#include <immintrin.h>

namespace inplace::kernels::detail {
namespace {

constexpr std::size_t kNtLine = 64;

/// Contiguous copy with 64-byte non-temporal stores on the 64-byte-
/// aligned interior of dst; head/tail through memcpy.  Unfenced.
void stream_body_avx512(void* dst, const void* src, std::size_t bytes) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  const std::size_t mis = reinterpret_cast<std::uintptr_t>(d) % 64;
  const std::size_t head = mis == 0 ? 0 : 64 - mis;
  if (bytes <= head + 64) {
    std::memcpy(d, s, bytes);
    return;
  }
  if (head != 0) {
    std::memcpy(d, s, head);
    d += head;
    s += head;
    bytes -= head;
  }
  std::size_t v = bytes / 64;
  while (v != 0) {
    prefetch_read(s + 8 * kNtLine);
    const __m512i a = _mm512_loadu_si512(s);
    _mm512_stream_si512(reinterpret_cast<__m512i*>(d), a);
    d += 64;
    s += 64;
    --v;
  }
  const std::size_t tail = bytes % 64;
  if (tail != 0) {
    std::memcpy(d, s, tail);
  }
}

void stream_avx512(void* dst, const void* src, std::size_t bytes) {
  stream_body_avx512(dst, src, bytes);
  _mm_sfence();
}

void stream_subrow_avx512(void* dst, const void* src, std::size_t bytes) {
  if (bytes < kNtLine) {
    std::memcpy(dst, src, bytes);
    return;
  }
  stream_body_avx512(dst, src, bytes);
}

void fence_avx512() { _mm_sfence(); }

/// dst[j] = src[(start + j*step) mod mod], 16 u32 lanes per vpgatherdd.
/// Index maintenance as in the AVX2 tier: add (16*step) mod mod, wrap by
/// unsigned min against the -mod candidate.  Requires mod < 2^31.
void gather_affine_u32_avx512(u32lane* dst, const u32lane* src,
                              std::size_t count, std::uint64_t start,
                              std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t L = 16;
  if (count < 2 * L || mod >= (std::uint64_t{1} << 31)) {
    gather_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  alignas(64) std::uint32_t lane_init[L];
  std::uint64_t idx0 = start;
  for (std::size_t l = 0; l < L; ++l) {
    lane_init[l] = static_cast<std::uint32_t>(idx0);
    idx0 += step;
    if (idx0 >= mod) {
      idx0 -= mod;
    }
  }
  __m512i idx = _mm512_load_si512(lane_init);
  const std::uint32_t adv32 = static_cast<std::uint32_t>(L * step % mod);
  const __m512i adv = _mm512_set1_epi32(static_cast<int>(adv32));
  const __m512i vmod =
      _mm512_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(mod)));
  affine_prefetcher pf(src, 4, start, step, mod, affine_prefetch_dist_u32);
  const std::size_t vec = count / L;
  for (std::size_t i = 0; i < vec; ++i) {
    pf.issue(L);
    const __m512i g = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), static_cast<__mmask16>(-1), idx, src, 4);
    _mm512_storeu_si512(dst + i * L, g);
    const __m512i bumped = _mm512_add_epi32(idx, adv);
    const __m512i wrapped = _mm512_sub_epi32(bumped, vmod);
    idx = _mm512_maskz_min_epu32(static_cast<__mmask16>(-1), bumped,
                                 wrapped);
  }
  const std::size_t done = vec * L;
  if (done < count) {
    // Lane 0 of idx is exactly (start + done*step) mod mod.
    alignas(64) std::uint32_t lanes[L];
    _mm512_store_si512(lanes, idx);
    gather_affine_portable(dst + done, src, count - done, lanes[0], step,
                           mod);
  }
}

/// 8 u64 lanes per vpgatherqq; wrap via _mm512_min_epu64.
void gather_affine_u64_avx512(u64lane* dst, const u64lane* src,
                              std::size_t count, std::uint64_t start,
                              std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t L = 8;
  if (count < 2 * L) {
    gather_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  alignas(64) std::uint64_t lane_init[L];
  std::uint64_t idx0 = start;
  for (std::size_t l = 0; l < L; ++l) {
    lane_init[l] = idx0;
    idx0 += step;
    if (idx0 >= mod) {
      idx0 -= mod;
    }
  }
  __m512i idx = _mm512_load_si512(lane_init);
  const __m512i adv =
      _mm512_set1_epi64(static_cast<long long>(L * step % mod));
  const __m512i vmod = _mm512_set1_epi64(static_cast<long long>(mod));
  affine_prefetcher pf(src, 8, start, step, mod, affine_prefetch_dist_u64);
  const std::size_t vec = count / L;
  for (std::size_t i = 0; i < vec; ++i) {
    pf.issue(L);
    const __m512i g = _mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), static_cast<__mmask8>(-1), idx, src, 8);
    _mm512_storeu_si512(dst + i * L, g);
    const __m512i bumped = _mm512_add_epi64(idx, adv);
    const __m512i wrapped = _mm512_sub_epi64(bumped, vmod);
    idx = _mm512_maskz_min_epu64(static_cast<__mmask8>(-1), bumped,
                                 wrapped);
  }
  const std::size_t done = vec * L;
  if (done < count) {
    alignas(64) std::uint64_t lanes[L];
    _mm512_store_si512(lanes, idx);
    gather_affine_portable(dst + done, src, count - done, lanes[0], step,
                           mod);
  }
}

/// dst[(start + j*step) mod mod] = src[j]: hardware scatter
/// (vpscatterdd), the instruction AVX2 lacks.  Within one 16-lane block
/// the indices are distinct (the engines' streams are restrictions of
/// bijections), and vpscatterdd writes lanes LSB-to-MSB anyway, matching
/// the scalar loop order.  Requires mod < 2^31.
void scatter_affine_u32_avx512(u32lane* dst, const u32lane* src,
                               std::size_t count, std::uint64_t start,
                               std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t L = 16;
  if (count < 2 * L || mod >= (std::uint64_t{1} << 31)) {
    scatter_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  alignas(64) std::uint32_t lane_init[L];
  std::uint64_t idx0 = start;
  for (std::size_t l = 0; l < L; ++l) {
    lane_init[l] = static_cast<std::uint32_t>(idx0);
    idx0 += step;
    if (idx0 >= mod) {
      idx0 -= mod;
    }
  }
  __m512i idx = _mm512_load_si512(lane_init);
  const std::uint32_t adv32 = static_cast<std::uint32_t>(L * step % mod);
  const __m512i adv = _mm512_set1_epi32(static_cast<int>(adv32));
  const __m512i vmod =
      _mm512_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(mod)));
  const std::size_t vec = count / L;
  for (std::size_t i = 0; i < vec; ++i) {
    const __m512i vals = _mm512_loadu_si512(src + i * L);
    _mm512_i32scatter_epi32(dst, idx, vals, 4);
    const __m512i bumped = _mm512_add_epi32(idx, adv);
    const __m512i wrapped = _mm512_sub_epi32(bumped, vmod);
    idx = _mm512_maskz_min_epu32(static_cast<__mmask16>(-1), bumped,
                                 wrapped);
  }
  const std::size_t done = vec * L;
  if (done < count) {
    alignas(64) std::uint32_t lanes[L];
    _mm512_store_si512(lanes, idx);
    scatter_affine_portable(dst, src + done, count - done, lanes[0], step,
                            mod);
  }
}

void scatter_affine_u64_avx512(u64lane* dst, const u64lane* src,
                               std::size_t count, std::uint64_t start,
                               std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t L = 8;
  if (count < 2 * L) {
    scatter_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  alignas(64) std::uint64_t lane_init[L];
  std::uint64_t idx0 = start;
  for (std::size_t l = 0; l < L; ++l) {
    lane_init[l] = idx0;
    idx0 += step;
    if (idx0 >= mod) {
      idx0 -= mod;
    }
  }
  __m512i idx = _mm512_load_si512(lane_init);
  const __m512i adv =
      _mm512_set1_epi64(static_cast<long long>(L * step % mod));
  const __m512i vmod = _mm512_set1_epi64(static_cast<long long>(mod));
  const std::size_t vec = count / L;
  for (std::size_t i = 0; i < vec; ++i) {
    const __m512i vals = _mm512_loadu_si512(src + i * L);
    _mm512_i64scatter_epi64(dst, idx, vals, 8);
    const __m512i bumped = _mm512_add_epi64(idx, adv);
    const __m512i wrapped = _mm512_sub_epi64(bumped, vmod);
    idx = _mm512_maskz_min_epu64(static_cast<__mmask8>(-1), bumped,
                                 wrapped);
  }
  const std::size_t done = vec * L;
  if (done < count) {
    alignas(64) std::uint64_t lanes[L];
    _mm512_store_si512(lanes, idx);
    scatter_affine_portable(dst, src + done, count - done, lanes[0], step,
                            mod);
  }
}

/// dst[j] = src[offs[j]], 8 lanes per vpgatherqd.  When stream_dst is
/// set, the contiguous 32-byte result stores go non-temporal after a
/// scalar prologue aligns dst (unfenced; callers fence per chunk).  The
/// in-place dst == src forward-sweep use stays safe: each block's lanes
/// are gathered before its store, and streamed stores of slots never
/// re-read within the call don't change the values moved.
void gather_index_u32_avx512(u32lane* dst, const u32lane* src,
                             const std::uint64_t* offs, std::size_t count,
                             bool stream_dst) {
  constexpr std::size_t L = 8;
  std::size_t j = 0;
  if (stream_dst) {
    const std::size_t mis = reinterpret_cast<std::uintptr_t>(dst) % 32;
    std::size_t pro = mis == 0 ? 0 : (32 - mis) / 4;
    pro = pro < count ? pro : count;
    for (; j < pro; ++j) {
      dst[j] = src[offs[j]];
    }
  }
  for (; j + L <= count; j += L) {
    const __m512i idx = _mm512_loadu_si512(offs + j);
    const __m256i g = _mm512_mask_i64gather_epi32(
        _mm256_setzero_si256(), static_cast<__mmask8>(-1), idx, src, 4);
    if (stream_dst) {
      _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + j), g);
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), g);
    }
  }
  for (; j < count; ++j) {
    dst[j] = src[offs[j]];
  }
}

void gather_index_u64_avx512(u64lane* dst, const u64lane* src,
                             const std::uint64_t* offs, std::size_t count,
                             bool stream_dst) {
  constexpr std::size_t L = 8;
  std::size_t j = 0;
  if (stream_dst) {
    const std::size_t mis = reinterpret_cast<std::uintptr_t>(dst) % 64;
    std::size_t pro = mis == 0 ? 0 : (64 - mis) / 8;
    pro = pro < count ? pro : count;
    for (; j < pro; ++j) {
      dst[j] = src[offs[j]];
    }
  }
  for (; j + L <= count; j += L) {
    const __m512i idx = _mm512_loadu_si512(offs + j);
    const __m512i g = _mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), static_cast<__mmask8>(-1), idx, src, 8);
    if (stream_dst) {
      _mm512_stream_si512(reinterpret_cast<__m512i*>(dst + j), g);
    } else {
      _mm512_storeu_si512(dst + j, g);
    }
  }
  for (; j < count; ++j) {
    dst[j] = src[offs[j]];
  }
}

/// Vector operations of the rotate_rows network (rotate_rows_blocks):
/// 16 u32 / 8 u64 lanes per zmm register, vpblendm{d,q} under a k-mask,
/// masked loads and stores for a group's last partial vector.
struct net_u32_avx512 {
  using lane = u32lane;
  using vec = __m512i;
  static constexpr std::size_t lanes = 16;
  static vec zero() { return _mm512_setzero_si512(); }
  static vec load(const lane* p) { return _mm512_loadu_si512(p); }
  static void store(lane* p, vec v) { _mm512_storeu_si512(p, v); }
  static __mmask16 tail(std::size_t n) {
    return static_cast<__mmask16>((1u << n) - 1);
  }
  static vec load_n(const lane* p, std::size_t n) {
    return _mm512_maskz_loadu_epi32(tail(n), p);
  }
  static void store_n(lane* p, vec v, std::size_t n) {
    _mm512_mask_storeu_epi32(p, tail(n), v);
  }
  static __mmask16 make_mask(std::uint32_t bits) {
    return static_cast<__mmask16>(bits);
  }
  static vec blend(vec a, vec b, __mmask16 k) {
    return _mm512_mask_blend_epi32(k, a, b);
  }
};

struct net_u64_avx512 {
  using lane = u64lane;
  using vec = __m512i;
  static constexpr std::size_t lanes = 8;
  static vec zero() { return _mm512_setzero_si512(); }
  static vec load(const lane* p) { return _mm512_loadu_si512(p); }
  static void store(lane* p, vec v) { _mm512_storeu_si512(p, v); }
  static __mmask8 tail(std::size_t n) {
    return static_cast<__mmask8>((1u << n) - 1);
  }
  static vec load_n(const lane* p, std::size_t n) {
    return _mm512_maskz_loadu_epi64(tail(n), p);
  }
  static void store_n(lane* p, vec v, std::size_t n) {
    _mm512_mask_storeu_epi64(p, tail(n), v);
  }
  static __mmask8 make_mask(std::uint32_t bits) {
    return static_cast<__mmask8>(bits);
  }
  static vec blend(vec a, vec b, __mmask8 k) {
    return _mm512_mask_blend_epi64(k, a, b);
  }
};

void rotate_rows_u32_avx512(u32lane* base, std::size_t rows,
                            std::size_t avail, std::size_t stride,
                            std::size_t width, const std::uint64_t* res) {
  rotate_rows_blocks<net_u32_avx512>(base, rows, avail, stride, width, res);
}

void rotate_rows_u64_avx512(u64lane* base, std::size_t rows,
                            std::size_t avail, std::size_t stride,
                            std::size_t width, const std::uint64_t* res) {
  rotate_rows_blocks<net_u64_avx512>(base, rows, avail, stride, width, res);
}

}  // namespace

const kernel_set* avx512_set() {
  static const kernel_set ks = [] {
    kernel_set s = make_portable_set(tier::avx512);
    s.stream = &stream_avx512;
    s.stream_subrow = &stream_subrow_avx512;
    s.fence = &fence_avx512;
    s.gather_affine_u32 = &gather_affine_u32_avx512;
    s.gather_affine_u64 = &gather_affine_u64_avx512;
    s.scatter_affine_u32 = &scatter_affine_u32_avx512;
    s.scatter_affine_u64 = &scatter_affine_u64_avx512;
    s.gather_index_u32 = &gather_index_u32_avx512;
    s.gather_index_u64 = &gather_index_u64_avx512;
    s.rotate_rows_u32 = &rotate_rows_u32_avx512;
    s.rotate_rows_u64 = &rotate_rows_u64_avx512;
    merge_tile_entry(s, tile_inreg_avx512());
    return s;
  }();
  return &ks;
}

}  // namespace inplace::kernels::detail

#else  // !INPLACE_KERNEL_COMPILE_AVX512

namespace inplace::kernels::detail {

const kernel_set* avx512_set() { return nullptr; }

}  // namespace inplace::kernels::detail

#endif
