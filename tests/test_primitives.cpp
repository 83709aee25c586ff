// Tests for the permutation and rotation primitives (core/permute.hpp,
// core/rotate.hpp) against brute-force models: row gathers/scatters,
// column gathers, cycle discovery and replay, coarse/fine/naive rotation
// equivalence, the window-normalization logic, and the fallback path for
// amount functions that violate the sub-row window assumption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/permute.hpp"
#include "core/rotate.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/aligned.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;
using namespace inplace::detail;

// Brute-force rotation model: dst[i][j] = src[(i + amount(j)) % m][j].
template <typename AmountFn>
std::vector<std::uint32_t> rotated_model(const std::vector<std::uint32_t>& a,
                                         std::uint64_t m, std::uint64_t n,
                                         AmountFn amount) {
  std::vector<std::uint32_t> out(a.size());
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      out[i * n + j] = a[(i + amount(j)) % m * n + j];
    }
  }
  return out;
}

TEST(Primitives, RowGatherAndScatterAreInverses) {
  const std::uint64_t n = 17;
  std::vector<std::uint32_t> row(n);
  util::fill_iota(std::span<std::uint32_t>(row));
  const auto src = row;
  util::aligned_vector<std::uint32_t> tmp(n);
  const auto idx = [n](std::uint64_t j) { return (j * 5 + 3) % n; };
  row_gather_inplace(row.data(), n, tmp.data(), idx);
  for (std::uint64_t j = 0; j < n; ++j) {
    EXPECT_EQ(row[j], src[idx(j)]);
  }
  row_scatter_inplace(row.data(), n, tmp.data(), idx);
  EXPECT_EQ(row, src);
}

TEST(Primitives, ColumnGatherMatchesModel) {
  const std::uint64_t m = 9;
  const std::uint64_t n = 5;
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  util::aligned_vector<std::uint32_t> tmp(m);
  const auto idx = [m](std::uint64_t i) { return (i * 2 + 1) % m; };
  column_gather_inplace(a.data(), m, n, 3, tmp.data(), idx);
  for (std::uint64_t i = 0; i < m; ++i) {
    EXPECT_EQ(a[i * n + 3], src[idx(i) * n + 3]);
    EXPECT_EQ(a[i * n + 0], src[i * n + 0]);  // other columns untouched
  }
}

TEST(Primitives, FindCyclesCoversPermutation) {
  // On every visited-scratch rung, discovery reports exactly the minima
  // of the nontrivial cycles, in increasing order (fixed points skipped).
  util::xoshiro256 rng(5);
  for (const std::uint64_t m : {1u, 2u, 12u, 97u, 640u}) {
    for (const std::uint64_t mult : {1u, 5u, 7u}) {
      if (std::gcd(mult, m) != 1) {
        continue;
      }
      const std::uint64_t add = rng.uniform(0, m);
      const auto perm = [m, mult, add](std::uint64_t i) {
        return (i * mult + add) % m;
      };
      std::vector<std::uint64_t> want;
      std::vector<bool> seen(m, false);
      for (std::uint64_t y = 0; y < m; ++y) {
        if (seen[y]) {
          continue;
        }
        std::uint64_t len = 0;
        for (std::uint64_t i = y; !seen[i]; i = perm(i), ++len) {
          seen[i] = true;
        }
        if (len > 1) {
          want.push_back(y);
        }
      }
      for (const scratch_rung rung :
           {scratch_rung::full, scratch_rung::reduced,
            scratch_rung::cycle_follow}) {
        visited_map v;
        v.allocate(m, rung);
        std::vector<std::uint64_t> got;
        discover_cycles(m, perm, v,
                        [&got](std::uint64_t y) { got.push_back(y); });
        EXPECT_EQ(got, want) << "m=" << m << " mult=" << mult
                             << " rung=" << rung_name(rung);
      }
    }
  }
}

TEST(Primitives, PermuteRowsInGroupMatchesModel) {
  // Strided sub-row groups of every width, with and without a memo (the
  // replay must move exactly what discovery moved), against the gather
  // model dst[i][j] = src[perm(i)][j].
  util::xoshiro256 rng(17);
  for (int t = 0; t < 40; ++t) {
    const std::uint64_t m = rng.uniform(1, 40);
    const std::uint64_t n = rng.uniform(1, 24);
    const std::uint64_t w = rng.uniform(1, n + 1);
    std::vector<std::uint64_t> p(m);
    std::iota(p.begin(), p.end(), std::uint64_t{0});
    for (std::uint64_t i = m; i > 1; --i) {
      std::swap(p[i - 1], p[rng.uniform(0, i)]);
    }
    const auto perm = [&p](std::uint64_t i) { return p[i]; };
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto src = a;
    workspace<std::uint32_t> ws;
    ws.reserve(m, n, w);
    cycle_memo memo;
    for (std::uint64_t j0 = 0; j0 < n; j0 += w) {
      const std::uint64_t width = std::min(w, n - j0);
      permute_row_group(a.data(), m, n, j0, width, perm,
                        j0 % (2 * w) == 0 ? &memo : nullptr, 7, ws,
                        ws.subrow.data(), nullptr, false);
    }
    for (std::uint64_t i = 0; i < m; ++i) {
      for (std::uint64_t j = 0; j < n; ++j) {
        ASSERT_EQ(a[i * n + j], src[perm(i) * n + j])
            << "m=" << m << " n=" << n << " w=" << w << " at " << i << ","
            << j;
      }
    }
  }
}

TEST(Primitives, CoarseRotateEqualsNaive) {
  util::xoshiro256 rng(31);
  for (int t = 0; t < 30; ++t) {
    const std::uint64_t m = rng.uniform(2, 40);
    const std::uint64_t n = rng.uniform(4, 24);
    const std::uint64_t w = rng.uniform(1, n + 1);
    const std::uint64_t k = rng.uniform(0, m);
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto want = rotated_model(a, m, n, [&](std::uint64_t j) {
      return j < w ? k : 0;  // rotate only the group at j0 = 0
    });
    std::vector<std::uint32_t> sub(w);
    coarse_rotate_group(a.data(), m, n, 0, w, k, sub.data());
    ASSERT_EQ(a, want) << m << "x" << n << " w=" << w << " k=" << k;
  }
}

TEST(Primitives, FineRotateEqualsNaive) {
  util::xoshiro256 rng(32);
  for (int t = 0; t < 30; ++t) {
    const std::uint64_t m = rng.uniform(3, 50);
    const std::uint64_t n = rng.uniform(2, 16);
    const std::uint64_t w = n;
    const std::uint64_t max_res = std::min(w, m) - 1;
    std::vector<std::uint64_t> res(w);
    for (auto& r : res) {
      r = max_res == 0 ? 0 : rng.uniform(0, max_res + 1);
    }
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto want = rotated_model(
        a, m, n, [&](std::uint64_t j) { return res[j]; });
    std::vector<std::uint32_t> head(std::max<std::uint64_t>(1, max_res) * w);
    fine_rotate_group(a.data(), m, n, 0, w, res.data(), head.data());
    ASSERT_EQ(a, want) << m << "x" << n;
  }
}

// --- The fine sweep on page-strided rows ---------------------------------
//
// Rows of n * sizeof(T) >= 4 KiB put every sub-row of a column group on
// its own page.  The native kernel set moves a group's unwrapped rows
// through its blend network (rotate_rows) and a slab's in place
// (gather_index); 2-byte elements take the scalar loop.  m runs from
// max_res + 1 (every row but the first wraps into the head buffer) to
// max_res + 11, and the group starts at an odd column, so sub-rows
// straddle cache lines.

/// The paper's residual families over a w-wide group after normalization
/// (+j, -j, +⌊j/b⌋, -⌊j/b⌋) plus a random one, every residual < w.
std::vector<std::vector<std::uint64_t>> residual_families(std::uint64_t w) {
  constexpr std::uint64_t b = 3;
  std::vector<std::vector<std::uint64_t>> out(5, std::vector<std::uint64_t>(w));
  util::xoshiro256 rng(w);
  for (std::uint64_t jj = 0; jj < w; ++jj) {
    out[0][jj] = jj;
    out[1][jj] = w - 1 - jj;
    out[2][jj] = jj / b;
    out[3][jj] = (w - 1) / b - jj / b;
    out[4][jj] = rng.uniform(0, w - 1);
  }
  return out;
}

/// An m x n matrix of random bits: a misplaced element shows at any
/// element width (an iota fill repeats in 2-byte elements).
template <typename T>
std::vector<T> random_matrix(std::uint64_t m, std::uint64_t n,
                             std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<T> a(m * n);
  for (auto& x : a) {
    x = static_cast<T>(rng());
  }
  return a;
}

/// a with column j0 + jj rotated by gather offset res[jj], jj in [0, w).
template <typename T>
std::vector<T> fine_model(const std::vector<T>& a, std::uint64_t m,
                          std::uint64_t n, std::uint64_t j0, std::uint64_t w,
                          const std::vector<std::uint64_t>& res) {
  auto out = a;
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t jj = 0; jj < w; ++jj) {
      out[i * n + j0 + jj] = a[(i + res[jj]) % m * n + j0 + jj];
    }
  }
  return out;
}

/// Runs fine_rotate_group, and fine_rotate_rows over three slabs (run
/// last-first, each with its successor's first max_res sub-rows saved as
/// its window beforehand, as the skinny team does), on page-strided rows
/// with the native kernel set, temporal and streamed, for every residual
/// family and every m in [max_res + 1, max_res + 11].
template <typename T>
void check_fine_sweep_page_strided(std::uint64_t w) {
  const kernels::kernel_set& ks = kernels::set_for(kernels::native_tier());
  const std::uint64_t n = 4096 / sizeof(T) + 5;
  const std::uint64_t j0 = 3;
  std::vector<std::uint64_t> idx(w);
  for (const auto& res : residual_families(w)) {
    const std::uint64_t max_res = *std::max_element(res.begin(), res.end());
    for (std::uint64_t jj = 0; jj < w; ++jj) {
      idx[jj] = res[jj] * n + jj;
    }
    for (std::uint64_t m = max_res + 1; m <= max_res + 11; ++m) {
      for (const bool stream : {false, true}) {
        const auto src = random_matrix<T>(m, n, m * 131 + max_res);
        const auto want = fine_model(src, m, n, j0, w, res);
        auto a = src;
        util::aligned_vector<T> head(fine_head_elements(m, w));
        fine_rotate_group(a.data(), m, n, j0, w, res.data(), head.data(), &ks);
        ASSERT_EQ(a, want) << "group: " << sizeof(T) << "-byte, " << m << "x"
                           << n << " w=" << w << " max_res=" << max_res
                           << " stream=" << stream;

        a = src;
        T* base = a.data() + j0;
        const std::uint64_t cut[4] = {0, m / 3, 2 * m / 3, m};
        std::vector<util::aligned_vector<T>> windows(3);
        for (int s = 0; s < 3; ++s) {
          windows[s].resize(std::max<std::uint64_t>(1, max_res) * w);
          for (std::uint64_t r = 0; r < max_res; ++r) {
            const std::uint64_t row = (cut[s + 1] + r) % m;
            std::copy(base + row * n, base + row * n + w,
                      windows[s].data() + r * w);
          }
        }
        for (int s = 2; s >= 0; --s) {
          if (cut[s] < cut[s + 1]) {
            fine_rotate_rows(base, cut[s], cut[s + 1], n, w, res.data(),
                             max_res, windows[s].data(), &ks, idx.data(),
                             stream);
          }
        }
        ASSERT_EQ(a, want) << "slabs: " << sizeof(T) << "-byte, " << m << "x"
                           << n << " w=" << w << " max_res=" << max_res
                           << " stream=" << stream;
      }
    }
  }
}

TEST(Primitives, FineSweepOnPageStridedRowsU32) {
  check_fine_sweep_page_strided<std::uint32_t>(64);  // the 256 B default
  check_fine_sweep_page_strided<std::uint32_t>(13);
}

TEST(Primitives, FineSweepOnPageStridedRowsU64) {
  check_fine_sweep_page_strided<std::uint64_t>(32);
  check_fine_sweep_page_strided<std::uint64_t>(7);
}

TEST(Primitives, FineSweepOnPageStridedRowsScalarLoop) {
  // 2-byte elements have no gather lanes: every row takes the scalar loop.
  check_fine_sweep_page_strided<std::uint16_t>(128);
  check_fine_sweep_page_strided<std::uint16_t>(9);
}

TEST(Primitives, GroupRotateHandlesAllPaperAmountFamilies) {
  // The four rotation families the engines use: +j, -j, +⌊j/b⌋, -⌊j/b⌋.
  util::xoshiro256 rng(33);
  for (int t = 0; t < 40; ++t) {
    const std::uint64_t m = rng.uniform(2, 60);
    const std::uint64_t n = rng.uniform(2, 60);
    const std::uint64_t b = rng.uniform(1, 8);
    const std::uint64_t width = rng.uniform(4, 20);
    const int family = static_cast<int>(rng.uniform(0, 4));
    const auto amount = [&](std::uint64_t j) -> std::uint64_t {
      switch (family) {
        case 0:
          return j % m;
        case 1:
          return (m - j % m) % m;
        case 2:
          return (j / b) % m;
        default:
          return (m - (j / b) % m) % m;
      }
    };
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto want = rotated_model(a, m, n, amount);
    workspace<std::uint32_t> ws;
    ws.reserve(m, n, width);
    rotate_columns_blocked(a.data(), m, n, width, amount, ws);
    ASSERT_EQ(a, want) << "family " << family << " " << m << "x" << n
                       << " b=" << b << " w=" << width;
  }
}

TEST(Primitives, GroupRotateFallsBackOnWindowViolation) {
  // A pseudo-random amount function violates the window assumption; the
  // group machinery must detect it and fall back to naive rotation.
  const std::uint64_t m = 29;
  const std::uint64_t n = 16;
  const auto amount = [m](std::uint64_t j) { return (j * 13 + 5) % m; };
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto want = rotated_model(a, m, n, amount);
  workspace<std::uint32_t> ws;
  ws.reserve(m, n, 8);
  rotate_columns_blocked(a.data(), m, n, 8, amount, ws);
  EXPECT_EQ(a, want);
}

TEST(Primitives, RotateDegenerateRows) {
  // m == 1: rotation is the identity regardless of amounts.
  auto a = util::iota_matrix<std::uint32_t>(1, 10);
  const auto src = a;
  workspace<std::uint32_t> ws;
  ws.reserve(1, 10, 4);
  rotate_columns_blocked(a.data(), 1, 10, 4,
                         [](std::uint64_t j) { return j; }, ws);
  EXPECT_EQ(a, src);
}

TEST(Primitives, WorkspaceReserveSizes) {
  workspace<double> ws;
  ws.reserve(100, 30, 8);
  EXPECT_EQ(ws.line.size(), 100u);  // max(m, n)
  EXPECT_EQ(ws.head.size(), 56u);   // (min(width, m) - 1) * width
  EXPECT_EQ(ws.subrow.size(), 8u);
  EXPECT_EQ(ws.visited.size(), 100u);
  EXPECT_EQ(ws.offsets.size(), 8u);
}

}  // namespace
