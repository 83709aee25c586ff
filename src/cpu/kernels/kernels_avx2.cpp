// AVX2 tier: 256-bit hardware gathers (vpgatherdd/vpgatherqq) for the
// affine and indexed shuffle kernels, non-temporal streaming stores for
// the copy/rotation paths, software prefetch on the strided streams.
// Compiled with -mavx2 -mfma for this TU only (src/CMakeLists.txt); the
// TU is excluded -- and avx2_set() returns nullptr from the registry's
// stub below -- when the configure-time compile check fails.
//
// AVX2 has gathers but no scatters, so the scatter_affine slots keep the
// portable loops (still auto-vectorized under this TU's flags).

#include "cpu/kernels/kernels_common.hpp"
#include "cpu/kernels/tile_inreg.hpp"

#if defined(INPLACE_KERNEL_COMPILE_AVX2)

#include <immintrin.h>

namespace inplace::kernels::detail {
namespace {

constexpr std::size_t kNtLine = 64;

/// Contiguous copy with non-temporal 32-byte stores on the 32-byte-
/// aligned interior of dst.  Head/tail go through memcpy (temporal); the
/// caller fences (or uses stream_avx2 below, which self-fences).
void stream_body_avx2(void* dst, const void* src, std::size_t bytes) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  const std::size_t mis = reinterpret_cast<std::uintptr_t>(d) % 32;
  const std::size_t head = mis == 0 ? 0 : 32 - mis;
  if (bytes <= head + 32) {
    std::memcpy(d, s, bytes);
    return;
  }
  if (head != 0) {
    std::memcpy(d, s, head);
    d += head;
    s += head;
    bytes -= head;
  }
  std::size_t v = bytes / 32;
  while (v >= 2) {
    prefetch_read(s + 8 * kNtLine);
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 32));
    _mm256_stream_si256(reinterpret_cast<__m256i*>(d), a);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(d + 32), b);
    d += 64;
    s += 64;
    v -= 2;
  }
  if (v != 0) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
    _mm256_stream_si256(reinterpret_cast<__m256i*>(d), a);
    d += 32;
    s += 32;
  }
  const std::size_t tail = bytes % 32;
  if (tail != 0) {
    std::memcpy(d, s, tail);
  }
}

void stream_avx2(void* dst, const void* src, std::size_t bytes) {
  stream_body_avx2(dst, src, bytes);
  _mm_sfence();
}

/// Unfenced variant for the many-small-moves rotation paths; callers
/// publish once per chunk with fence().  Below one cache line the NT
/// setup is pure overhead -> temporal copy.
void stream_subrow_avx2(void* dst, const void* src, std::size_t bytes) {
  if (bytes < kNtLine) {
    std::memcpy(dst, src, bytes);
    return;
  }
  stream_body_avx2(dst, src, bytes);
}

void fence_avx2() { _mm_sfence(); }

/// dst[j] = src[(start + j*step) mod mod], 8 lanes of u32 per gather.
/// The 8-lane index vector advances by (8*step) mod mod each iteration;
/// the wrap is one unsigned min: idx' = idx + adv computed both with and
/// without the compensating -mod, and min_epu32 picks the reduced form
/// because the un-wrapped candidate underflows to a huge value exactly
/// when no wrap happened.  Requires mod < 2^31 (vpgatherdd sign-extends).
void gather_affine_u32_avx2(u32lane* dst, const u32lane* src,
                            std::size_t count, std::uint64_t start,
                            std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t L = 8;
  if (count < 2 * L || mod >= (std::uint64_t{1} << 31)) {
    gather_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  alignas(32) std::uint32_t lane_init[L];
  std::uint64_t idx0 = start;
  for (std::size_t l = 0; l < L; ++l) {
    lane_init[l] = static_cast<std::uint32_t>(idx0);
    idx0 += step;
    if (idx0 >= mod) {
      idx0 -= mod;
    }
  }
  __m256i idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_init));
  const std::uint32_t adv32 = static_cast<std::uint32_t>(L * step % mod);
  const __m256i adv = _mm256_set1_epi32(static_cast<int>(adv32));
  const __m256i vmod =
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(mod)));
  affine_prefetcher pf(src, 4, start, step, mod, affine_prefetch_dist_u32);
  const std::size_t vec = count / L;
  const auto* base = reinterpret_cast<const int*>(src);
  for (std::size_t i = 0; i < vec; ++i) {
    pf.issue(L);
    const __m256i g = _mm256_i32gather_epi32(base, idx, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i * L), g);
    const __m256i bumped = _mm256_add_epi32(idx, adv);
    const __m256i wrapped = _mm256_sub_epi32(bumped, vmod);
    idx = _mm256_min_epu32(bumped, wrapped);
  }
  const std::size_t done = vec * L;
  if (done < count) {
    // Lane 0 of idx is exactly (start + done*step) mod mod.
    const auto rem_start = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm256_castsi256_si128(idx)));
    gather_affine_portable(dst + done, src, count - done, rem_start, step,
                           mod);
  }
}

/// 4 lanes of u64 per vpgatherqq.  The wrap uses a signed compare+blend
/// (no unsigned 64-bit min before AVX-512), valid because mod < 2^62 in
/// any realizable shape, so the pre-wrap candidates stay positive as
/// signed 64-bit values.
void gather_affine_u64_avx2(u64lane* dst, const u64lane* src,
                            std::size_t count, std::uint64_t start,
                            std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t L = 4;
  if (count < 2 * L) {
    gather_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  alignas(32) std::uint64_t lane_init[L];
  std::uint64_t idx0 = start;
  for (std::size_t l = 0; l < L; ++l) {
    lane_init[l] = idx0;
    idx0 += step;
    if (idx0 >= mod) {
      idx0 -= mod;
    }
  }
  __m256i idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_init));
  const std::uint64_t adv64 = L * step % mod;
  const __m256i adv = _mm256_set1_epi64x(static_cast<long long>(adv64));
  const __m256i vmod = _mm256_set1_epi64x(static_cast<long long>(mod));
  affine_prefetcher pf(src, 8, start, step, mod, affine_prefetch_dist_u64);
  const std::size_t vec = count / L;
  const auto* base = reinterpret_cast<const long long*>(src);
  for (std::size_t i = 0; i < vec; ++i) {
    pf.issue(L);
    const __m256i g = _mm256_i64gather_epi64(base, idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i * L), g);
    const __m256i bumped = _mm256_add_epi64(idx, adv);
    // bumped >= vmod  <=>  vmod > bumped is false (both positive signed).
    const __m256i keep = _mm256_cmpgt_epi64(vmod, bumped);
    const __m256i wrapped = _mm256_sub_epi64(bumped, vmod);
    idx = _mm256_blendv_epi8(wrapped, bumped, keep);
  }
  const std::size_t done = vec * L;
  if (done < count) {
    // Lane 0 of idx is exactly (start + done*step) mod mod.
    const auto rem_start = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm256_castsi256_si128(idx)));
    gather_affine_portable(dst + done, src, count - done, rem_start, step,
                           mod);
  }
}

/// dst[j] = src[offs[j]], 4 lanes per iteration through vpgatherqd /
/// vpgatherqq on the precomputed 64-bit offsets.  stream_dst is accepted
/// but ignored on this tier: AVX2's 16/32-byte NT stores would need a
/// per-row alignment prologue that costs more than the RFO it saves at
/// these sizes (the AVX-512 tier streams).  The engines' in-place use
/// (dst == src, forward sweep) stays safe: lanes are gathered before the
/// iteration's store, and offsets never point at slots written by
/// earlier iterations.
void gather_index_u32_avx2(u32lane* dst, const u32lane* src,
                           const std::uint64_t* offs, std::size_t count,
                           bool /*stream_dst*/) {
  constexpr std::size_t L = 4;
  const std::size_t vec = count / L;
  const auto* base = reinterpret_cast<const int*>(src);
  for (std::size_t i = 0; i < vec; ++i) {
    const std::size_t j = i * L;
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offs + j));
    const __m128i g = _mm256_i64gather_epi32(base, idx, 4);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j), g);
  }
  for (std::size_t j = vec * L; j < count; ++j) {
    dst[j] = src[offs[j]];
  }
}

void gather_index_u64_avx2(u64lane* dst, const u64lane* src,
                           const std::uint64_t* offs, std::size_t count,
                           bool /*stream_dst*/) {
  constexpr std::size_t L = 4;
  const std::size_t vec = count / L;
  const auto* base = reinterpret_cast<const long long*>(src);
  for (std::size_t i = 0; i < vec; ++i) {
    const std::size_t j = i * L;
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offs + j));
    const __m256i g = _mm256_i64gather_epi64(base, idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), g);
  }
  for (std::size_t j = vec * L; j < count; ++j) {
    dst[j] = src[offs[j]];
  }
}

/// Vector operations of the rotate_rows network (rotate_rows_blocks):
/// 8 u32 / 4 u64 lanes per ymm register, vpblendvb under a lane mask
/// expanded from the mask bits; a group's last partial vector moves
/// through a stack copy.
template <std::size_t Bytes>
struct net_lane;
template <>
struct net_lane<4> {
  using type = u32lane;
};
template <>
struct net_lane<8> {
  using type = u64lane;
};

template <std::size_t Bytes>
struct net_avx2 {
  using lane = typename net_lane<Bytes>::type;
  using vec = __m256i;
  static constexpr std::size_t lanes = 32 / Bytes;
  static vec zero() { return _mm256_setzero_si256(); }
  static vec load(const lane* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(lane* p, vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vec load_n(const lane* p, std::size_t n) {
    alignas(32) lane buf[lanes] = {};
    std::memcpy(buf, p, n * sizeof(lane));
    return load(buf);
  }
  static void store_n(lane* p, vec v, std::size_t n) {
    alignas(32) lane buf[lanes];
    store(buf, v);
    std::memcpy(p, buf, n * sizeof(lane));
  }
  static vec make_mask(std::uint32_t bits) {
    if constexpr (lanes == 8) {
      const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
      return _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), bit),
          bit);
    } else {
      const __m256i bit = _mm256_setr_epi64x(1, 2, 4, 8);
      return _mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_set1_epi64x(bits), bit), bit);
    }
  }
  static vec blend(vec a, vec b, vec k) { return _mm256_blendv_epi8(a, b, k); }
};

void rotate_rows_u32_avx2(u32lane* base, std::size_t rows, std::size_t avail,
                          std::size_t stride, std::size_t width,
                          const std::uint64_t* res) {
  rotate_rows_blocks<net_avx2<4>>(base, rows, avail, stride, width, res);
}

void rotate_rows_u64_avx2(u64lane* base, std::size_t rows, std::size_t avail,
                          std::size_t stride, std::size_t width,
                          const std::uint64_t* res) {
  rotate_rows_blocks<net_avx2<8>>(base, rows, avail, stride, width, res);
}

}  // namespace

const kernel_set* avx2_set() {
  static const kernel_set ks = [] {
    kernel_set s = make_portable_set(tier::avx2);
    s.stream = &stream_avx2;
    s.stream_subrow = &stream_subrow_avx2;
    s.fence = &fence_avx2;
    s.gather_affine_u32 = &gather_affine_u32_avx2;
    s.gather_affine_u64 = &gather_affine_u64_avx2;
    s.gather_index_u32 = &gather_index_u32_avx2;
    s.gather_index_u64 = &gather_index_u64_avx2;
    s.rotate_rows_u32 = &rotate_rows_u32_avx2;
    s.rotate_rows_u64 = &rotate_rows_u64_avx2;
    merge_tile_entry(s, tile_inreg_avx2());
    return s;
  }();
  return &ks;
}

}  // namespace inplace::kernels::detail

#else  // !INPLACE_KERNEL_COMPILE_AVX2

namespace inplace::kernels::detail {

const kernel_set* avx2_set() { return nullptr; }

}  // namespace inplace::kernels::detail

#endif
