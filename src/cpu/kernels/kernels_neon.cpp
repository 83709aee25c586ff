// NEON tier (aarch64).  NEON has no hardware gather/scatter, so the
// shuffle kernels keep the portable loops — compiled in this TU, where
// the aarch64 baseline guarantees NEON and GCC auto-vectorizes the
// contiguous copies — and the win over tier::scalar comes from the
// software prefetch the portable loops lack (prfm via
// __builtin_prefetch in affine_prefetcher).  aarch64 also has no
// non-temporal store intrinsic in plain C (STNP is not exposed), so the
// streaming slots stay temporal and fence stays a no-op.

#include "cpu/kernels/kernels_common.hpp"
#include "cpu/kernels/tile_inreg.hpp"

#if defined(INPLACE_KERNEL_COMPILE_NEON)

namespace inplace::kernels::detail {
namespace {

template <typename U, std::size_t Dist>
void gather_affine_neon(U* __restrict dst, const U* __restrict src,
                        std::size_t count, std::uint64_t start,
                        std::uint64_t step, std::uint64_t mod) {
  constexpr std::size_t kBlock = 8;
  if (count < 2 * kBlock) {
    gather_affine_portable(dst, src, count, start, step, mod);
    return;
  }
  affine_prefetcher pf(src, sizeof(U), start, step, mod, Dist);
  std::uint64_t idx = start;
  std::size_t j = 0;
  for (; j + kBlock <= count; j += kBlock) {
    pf.issue(kBlock);
    for (std::size_t l = 0; l < kBlock; ++l) {
      dst[j + l] = src[idx];
      idx += step;
      if (idx >= mod) {
        idx -= mod;
      }
    }
  }
  gather_affine_portable(dst + j, src, count - j, idx, step, mod);
}

template <typename U>
void gather_index_neon(U* dst, const U* src,
                       const std::uint64_t* __restrict offs,
                       std::size_t count, bool /*stream_dst*/) {
  for (std::size_t j = 0; j < count; ++j) {
    dst[j] = src[offs[j]];
  }
}

}  // namespace

const kernel_set* neon_set() {
  static const kernel_set ks = [] {
    kernel_set s = make_portable_set(tier::neon);
    s.gather_affine_u32 =
        &gather_affine_neon<u32lane, affine_prefetch_dist_u32>;
    s.gather_affine_u64 =
        &gather_affine_neon<u64lane, affine_prefetch_dist_u64>;
    s.gather_index_u32 = &gather_index_neon<u32lane>;
    s.gather_index_u64 = &gather_index_neon<u64lane>;
    merge_tile_entry(s, tile_inreg_neon());
    return s;
  }();
  return &ks;
}

}  // namespace inplace::kernels::detail

#else  // !INPLACE_KERNEL_COMPILE_NEON

namespace inplace::kernels::detail {

const kernel_set* neon_set() { return nullptr; }

}  // namespace inplace::kernels::detail

#endif
