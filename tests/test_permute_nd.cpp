// Tests for the arbitrary-rank permutation engine (core/tensor_nd.hpp +
// core/tensor_plan.hpp): an exhaustive sweep of every permutation at
// rank <= 4 over extent grids that include 0 and 1, at element widths
// 1/2/4/8, against an out-of-place reference — plus normalization,
// planning invariants, and transpose_context integration (warm-path
// cache hits, normalized-key sharing, eviction accounting).

#include "core/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/context.hpp"
#include "core/tensor_plan.hpp"

namespace {

using namespace inplace;

/// Out-of-place reference: permutes `in` (row-major, extents `dims`) into
/// the returned buffer (row-major, extents dims[perm[k]]).
template <typename T>
std::vector<T> reference_permute(const std::vector<T>& in,
                                 std::span<const std::size_t> dims,
                                 std::span<const int> perm) {
  const std::size_t rank = dims.size();
  std::vector<std::size_t> out_dims(rank);
  for (std::size_t k = 0; k < rank; ++k) {
    out_dims[k] = dims[static_cast<std::size_t>(perm[k])];
  }
  std::vector<std::size_t> out_strides(rank, 1);
  for (std::size_t k = rank; k-- > 1;) {
    out_strides[k - 1] = out_strides[k] * out_dims[k];
  }
  std::vector<T> out(in.size());
  std::vector<std::size_t> idx(rank, 0);
  for (std::size_t lin = 0; lin < in.size(); ++lin) {
    std::size_t olin = 0;
    for (std::size_t k = 0; k < rank; ++k) {
      olin += idx[static_cast<std::size_t>(perm[k])] * out_strides[k];
    }
    out[olin] = in[lin];
    for (std::size_t k = rank; k-- > 0;) {
      if (++idx[k] < dims[k]) {
        break;
      }
      idx[k] = 0;
    }
  }
  return out;
}

/// Runs permute_nd on a fresh deterministic buffer and compares
/// bit-exactly against the reference.
template <typename T>
void check_one(std::span<const std::size_t> dims, std::span<const int> perm) {
  std::size_t total = 1;
  for (const std::size_t d : dims) {
    total *= d;
  }
  std::vector<T> a(total);
  for (std::size_t l = 0; l < total; ++l) {
    a[l] = static_cast<T>(l * 2654435761u + 17u);
  }
  const std::vector<T> want = reference_permute(a, dims, perm);
  permute_nd(a.data(), dims, perm);
  ASSERT_EQ(a, want);
}

/// Dispatches check_one to the element width selected by `pick` — the
/// sweep cycles widths by flat case index so every (perm, extents) cell
/// exercises some width and every width covers the whole grid shape-wise.
void check_width(std::span<const std::size_t> dims, std::span<const int> perm,
                 std::size_t pick) {
  switch (pick % 4) {
    case 0:
      check_one<std::uint8_t>(dims, perm);
      break;
    case 1:
      check_one<std::uint16_t>(dims, perm);
      break;
    case 2:
      check_one<std::uint32_t>(dims, perm);
      break;
    default:
      check_one<std::uint64_t>(dims, perm);
      break;
  }
}

TEST(PermuteNd, RankZeroAndRankOne) {
  std::vector<std::uint32_t> a = {1, 2, 3, 4, 5};
  const auto before = a;
  permute_nd(a.data(), std::span<const std::size_t>{},
             std::span<const int>{});
  EXPECT_EQ(a, before);
  for (std::size_t d = 0; d <= 6; ++d) {
    const std::size_t dims[1] = {d};
    const int perm[1] = {0};
    check_one<std::uint32_t>(dims, perm);
  }
}

TEST(PermuteNd, ExhaustiveRank2) {
  std::size_t pick = 0;
  for (int p = 0; p < 2; ++p) {
    const int perm[2] = {p, 1 - p};
    for (std::size_t d0 = 0; d0 <= 6; ++d0) {
      for (std::size_t d1 = 0; d1 <= 6; ++d1) {
        const std::size_t dims[2] = {d0, d1};
        check_width(dims, perm, pick++);
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "perm {" << perm[0] << "," << perm[1] << "} dims " << d0
                 << "x" << d1;
        }
      }
    }
  }
}

TEST(PermuteNd, ExhaustiveRank3) {
  std::array<int, 3> perm = {0, 1, 2};
  std::size_t pick = 0;
  do {
    for (std::size_t d0 = 0; d0 <= 6; ++d0) {
      for (std::size_t d1 = 0; d1 <= 6; ++d1) {
        for (std::size_t d2 = 0; d2 <= 6; ++d2) {
          const std::size_t dims[3] = {d0, d1, d2};
          check_width(dims, perm, pick++);
          if (::testing::Test::HasFatalFailure()) {
            FAIL() << "perm {" << perm[0] << "," << perm[1] << ","
                   << perm[2] << "} dims " << d0 << "x" << d1 << "x" << d2;
          }
        }
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(PermuteNd, ExhaustiveRank4) {
  // All 24 permutations over an extent grid that still includes the empty
  // and unit edge cases; widths cycle by flat index as above.
  const std::size_t extents[] = {0, 1, 2, 3, 5, 6};
  std::array<int, 4> perm = {0, 1, 2, 3};
  std::size_t pick = 0;
  do {
    for (const std::size_t d0 : extents) {
      for (const std::size_t d1 : extents) {
        for (const std::size_t d2 : extents) {
          for (const std::size_t d3 : extents) {
            const std::size_t dims[4] = {d0, d1, d2, d3};
            check_width(dims, perm, pick++);
            if (::testing::Test::HasFatalFailure()) {
              FAIL() << "perm {" << perm[0] << "," << perm[1] << ","
                     << perm[2] << "," << perm[3] << "} dims " << d0 << "x"
                     << d1 << "x" << d2 << "x" << d3;
            }
          }
        }
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(PermuteNd, HighRankSmoke) {
  // Ranks 5..8 on small extents, a handful of structured perms each:
  // full reversal (worst case for fusion), a rotation, and a mixed order.
  for (std::size_t rank = 5; rank <= 8; ++rank) {
    std::vector<std::size_t> dims(rank);
    for (std::size_t k = 0; k < rank; ++k) {
      dims[k] = 2 + (k % 2);  // alternating 2s and 3s
    }
    std::vector<int> reversal(rank);
    std::vector<int> rotation(rank);
    std::vector<int> mixed(rank);
    for (std::size_t k = 0; k < rank; ++k) {
      reversal[k] = static_cast<int>(rank - 1 - k);
      rotation[k] = static_cast<int>((k + 1) % rank);
      mixed[k] = static_cast<int>(k % 2 == 0 ? k / 2 : rank - 1 - k / 2);
    }
    check_one<std::uint32_t>(dims, reversal);
    check_one<std::uint16_t>(dims, rotation);
    check_one<std::uint64_t>(dims, mixed);
  }
}

TEST(PermuteNd, NchwToNhwcAndBack) {
  // The ML layout conversion examples/ml_batched.cpp runs: NCHW -> NHWC
  // is perm {0, 2, 3, 1}; its inverse is {0, 3, 1, 2}.
  const std::size_t dims[4] = {3, 5, 7, 11};
  const int to_nhwc[4] = {0, 2, 3, 1};
  const int to_nchw[4] = {0, 3, 1, 2};
  check_one<float>(dims, to_nhwc);
  std::vector<float> a(3 * 5 * 7 * 11);
  std::iota(a.begin(), a.end(), 0.0f);
  const auto src = a;
  permute_nd(a.data(), dims, std::span<const int>(to_nhwc));
  const std::size_t nhwc_dims[4] = {3, 7, 11, 5};
  permute_nd(a.data(), nhwc_dims, std::span<const int>(to_nchw));
  EXPECT_EQ(a, src);
}

TEST(PermuteNd, Validation) {
  std::vector<std::uint32_t> a(16);
  const std::size_t dims3[3] = {2, 2, 4};
  const int short_perm[2] = {0, 1};
  EXPECT_THROW(permute_nd(a.data(), dims3, short_perm), error);
  const int dup[3] = {0, 1, 1};
  EXPECT_THROW(permute_nd(a.data(), dims3, dup), error);
  const int oob[3] = {0, 1, 3};
  EXPECT_THROW(permute_nd(a.data(), dims3, oob), error);
  const int neg[3] = {0, 1, -1};
  EXPECT_THROW(permute_nd(a.data(), dims3, neg), error);
  // Rank above tensor_max_rank.
  std::vector<std::size_t> dims9(9, 1);
  std::vector<int> perm9(9);
  std::iota(perm9.begin(), perm9.end(), 0);
  EXPECT_THROW(
      permute_nd(a.data(), std::span<const std::size_t>(dims9), perm9),
      error);
  // Null data: rejected with nonzero extent, accepted when empty.
  const int rev3[3] = {2, 1, 0};
  EXPECT_THROW(permute_nd<std::uint32_t>(nullptr, dims3, rev3), error);
  const std::size_t empty3[3] = {2, 0, 4};
  EXPECT_NO_THROW(permute_nd<std::uint32_t>(nullptr, empty3, rev3));
}

TEST(PermuteNd, OverflowingExtentsThrowInsteadOfWrapping) {
  // Crafted extents whose product wraps size_t: the pre-funnel code
  // computed the product first and validated the wrapped value (treating
  // these as empty tensors); the N-D funnel checks every partial product.
  std::vector<std::uint32_t> a(8);
  const std::size_t big = std::size_t{1} << 32;
  const int rev3[3] = {2, 1, 0};
  const std::size_t wrap_a[3] = {big, big, 2};
  EXPECT_THROW(permute_nd(a.data(), wrap_a, rev3), error);
  const std::size_t wrap_b[3] = {2, big, big};
  EXPECT_THROW(permute_nd(a.data(), wrap_b, rev3), error);
  // Element count fits size_t, but the byte extent does not.
  const std::size_t wrap_bytes[3] = {std::size_t{1} << 62, 2, 2};
  EXPECT_THROW(permute_nd(a.data(), wrap_bytes, rev3), error);
}

TEST(PermuteNdPlan, NormalizationFusesAndDropsUnits) {
  // NCHW -> NHWC fuses H,W and drops nothing: rank 3 residual.
  {
    const std::size_t dims[4] = {2, 3, 4, 5};
    const int perm[4] = {0, 2, 3, 1};
    const auto norm = detail::normalize_nd(dims, perm);
    EXPECT_EQ(norm.rank, 3u);
    EXPECT_EQ(norm.total, 2u * 3u * 4u * 5u);
  }
  // Unit extents drop: {4, 1, 5} under {2, 1, 0} is a plain 2-D swap.
  {
    const std::size_t dims[3] = {4, 1, 5};
    const int perm[3] = {2, 1, 0};
    const auto norm = detail::normalize_nd(dims, perm);
    EXPECT_EQ(norm.rank, 2u);
    EXPECT_EQ(norm.dims[0], 4u);
    EXPECT_EQ(norm.dims[1], 5u);
  }
  // Identity (after fusion) collapses to rank <= 1.
  {
    const std::size_t dims[3] = {4, 5, 6};
    const int perm[3] = {0, 1, 2};
    const auto norm = detail::normalize_nd(dims, perm);
    EXPECT_LE(norm.rank, 1u);
  }
}

TEST(PermuteNdPlan, SearchNeverLosesToTheWorstOrder) {
  // The ablation foil: on every probe shape the searched plan's model
  // cost is no worse than the worst-order decomposition's.
  const std::size_t shapes[][4] = {
      {64, 48, 32, 1}, {8, 96, 24, 16}, {128, 4, 64, 8}, {6, 6, 6, 6}};
  const int perms[][4] = {
      {2, 1, 0, 3}, {3, 2, 1, 0}, {1, 0, 3, 2}, {0, 2, 3, 1}};
  for (std::size_t c = 0; c < 4; ++c) {
    std::vector<std::size_t> dims;
    std::vector<int> perm;
    for (std::size_t k = 0; k < 4; ++k) {
      if (shapes[c][k] > 1) {
        dims.push_back(shapes[c][k]);
      }
    }
    // Use only valid rank-matching perms: rebuild as a permutation of the
    // kept axes by rank.
    const std::size_t rank = dims.size();
    for (std::size_t k = 0; k < 4; ++k) {
      if (perms[c][k] < static_cast<int>(rank)) {
        perm.push_back(perms[c][k]);
      }
    }
    const auto norm = detail::normalize_nd(
        std::span<const std::size_t>(dims), std::span<const int>(perm));
    if (norm.rank <= 1) {
      continue;
    }
    const auto best =
        detail::make_tensor_plan(norm, 4, detail::tensor_goal::best);
    const auto worst =
        detail::make_tensor_plan(norm, 4, detail::tensor_goal::worst);
    EXPECT_FALSE(best.passes.empty());
    EXPECT_LE(best.model_seconds, worst.model_seconds);
  }
}

TEST(PermuteNdContext, WarmRepeatsHitThePlanCache) {
  transpose_context ctx;
  const std::size_t dims[4] = {4, 5, 6, 7};
  const int perm[4] = {3, 0, 2, 1};
  std::vector<std::uint32_t> a(4 * 5 * 6 * 7);
  std::iota(a.begin(), a.end(), 0u);
  const auto want = reference_permute(
      a, std::span<const std::size_t>(dims), std::span<const int>(perm));
  ctx.permute_nd(a.data(), dims, std::span<const int>(perm));
  EXPECT_EQ(a, want);
  const context_stats cold = ctx.stats();
  EXPECT_EQ(cold.plan_misses, 1u);
  EXPECT_EQ(cold.arenas_created, 1u);
  EXPECT_EQ(cold.executions, 1u);

  // Steady state: repeats are pure warm-path — no new plans, no new
  // arenas, every checkout a reuse.
  const std::size_t reps = 8;
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<std::uint32_t> b(a.size());
    std::iota(b.begin(), b.end(), 0u);
    ctx.permute_nd(b.data(), dims, std::span<const int>(perm));
    ASSERT_EQ(b, want);
  }
  const context_stats warm = ctx.stats();
  EXPECT_EQ(warm.plan_misses, 1u);
  EXPECT_EQ(warm.plan_hits, cold.plan_hits + reps);
  EXPECT_EQ(warm.arenas_created, 1u);
  EXPECT_EQ(warm.arenas_reused, reps);
  EXPECT_EQ(warm.executions, 1u + reps);
}

TEST(PermuteNdContext, NormalizedKeySharedAcrossUnitAxes) {
  // {4,5,6} reversed and {4,1,5,6} reversed-with-a-unit-axis normalize to
  // the same residual problem, so the second call hits the first's plan.
  transpose_context ctx;
  std::vector<std::uint32_t> a(4 * 5 * 6);
  std::iota(a.begin(), a.end(), 0u);
  const std::size_t dims3[3] = {4, 5, 6};
  const int rev3[3] = {2, 1, 0};
  ctx.permute_nd(a.data(), dims3, rev3);
  EXPECT_EQ(ctx.stats().plan_misses, 1u);

  std::vector<std::uint32_t> b(4 * 5 * 6);
  std::iota(b.begin(), b.end(), 0u);
  const std::size_t dims4[4] = {4, 1, 5, 6};
  const int perm4[4] = {3, 1, 2, 0};  // drops to {2, 1, 0} on kept axes
  const auto want = reference_permute(
      b, std::span<const std::size_t>(dims4), std::span<const int>(perm4));
  ctx.permute_nd(b.data(), dims4, std::span<const int>(perm4));
  EXPECT_EQ(b, want);
  const context_stats s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
}

TEST(PermuteNdContext, IdentityAndEmptyBypassTheCache) {
  transpose_context ctx;
  std::vector<std::uint32_t> a(24);
  std::iota(a.begin(), a.end(), 0u);
  const auto before = a;
  const std::size_t dims[3] = {2, 3, 4};
  const int id3[3] = {0, 1, 2};
  ctx.permute_nd(a.data(), dims, id3);
  EXPECT_EQ(a, before);
  const std::size_t empty[3] = {2, 0, 4};
  const int rev3[3] = {2, 1, 0};
  ctx.permute_nd(a.data(), empty, rev3);
  // A unit-axis-heavy identity in disguise: {1, 6, 1} under {2, 1, 0}.
  const std::size_t units[3] = {1, 6, 1};
  ctx.permute_nd(a.data(), units, rev3);
  const context_stats s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 0u);
  EXPECT_EQ(s.plan_hits, 0u);
  EXPECT_EQ(s.executions, 0u);
  EXPECT_EQ(ctx.cached_plans(), 0u);
}

TEST(PermuteNdContext, EvictionAccountingWithPermExtendedKeys) {
  context_options copts;
  copts.max_plans = 2;
  transpose_context ctx(copts);
  const int rev3[3] = {2, 1, 0};
  for (std::size_t n = 3; n <= 6; ++n) {
    const std::size_t dims[3] = {n, n + 1, n + 2};
    std::vector<std::uint32_t> a(n * (n + 1) * (n + 2));
    std::iota(a.begin(), a.end(), 0u);
    ctx.permute_nd(a.data(), dims, rev3);
  }
  const context_stats s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 4u);
  EXPECT_GE(s.plan_evictions, 2u);
  EXPECT_LE(ctx.cached_plans(), 2u);
  EXPECT_GT(ctx.cached_bytes(), 0u);
  ctx.clear();
  EXPECT_EQ(ctx.cached_plans(), 0u);
  EXPECT_EQ(ctx.cached_bytes(), 0u);
}

TEST(PermuteNdContext, MixedModesKeepDistinctKeys) {
  // A 2-D transpose and the equivalent rank-2 permute_nd are different
  // modes: both must run correctly and neither may poach the other's
  // cache slot.
  transpose_context ctx;
  std::vector<std::uint32_t> a(12 * 18);
  std::iota(a.begin(), a.end(), 0u);
  auto b = a;
  ctx.transpose(a.data(), 12, 18);
  const std::size_t dims[2] = {12, 18};
  const int swap2[2] = {1, 0};
  ctx.permute_nd(b.data(), dims, swap2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ctx.stats().plan_misses, 2u);
  EXPECT_EQ(ctx.cached_plans(), 2u);
}

TEST(CheckedTensorNd, ViewValidatesAndIndexes) {
  std::vector<std::uint32_t> a(2 * 3 * 4 * 5);
  std::iota(a.begin(), a.end(), 0u);
  const std::size_t dims[4] = {2, 3, 4, 5};
  tensor_view_nd<std::uint32_t> v(a.data(), dims);
  EXPECT_EQ(v.rank(), 4u);
  EXPECT_EQ(v.size(), a.size());
  EXPECT_EQ(v.extent(2), 4u);
  const std::size_t idx[4] = {1, 2, 3, 4};
  EXPECT_EQ(v.at(idx), a[((1 * 3 + 2) * 4 + 3) * 5 + 4]);
  // Overflow-wrapping extents are rejected at construction (the PR-8
  // funnel), as are null buffers with nonzero extents.
  const std::size_t big = std::size_t{1} << 32;
  const std::size_t wrap[3] = {big, big, 2};
  EXPECT_THROW(tensor_view_nd<std::uint32_t>(a.data(), wrap), error);
  const std::size_t dims3[3] = {2, 3, 4};
  EXPECT_THROW(tensor_view_nd<std::uint32_t>(nullptr, dims3), error);
  const std::size_t empty3[3] = {2, 0, 4};
  EXPECT_NO_THROW(tensor_view_nd<std::uint32_t>(nullptr, empty3));
}

}  // namespace
