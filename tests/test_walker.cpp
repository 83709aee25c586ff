// The cycle-leader walker (core/cycle_walker.hpp) against brute-force
// models: every permutation of n <= 7 and random ones up to n = 5000,
// each on every visited-scratch rung, through every mover shape (single
// element, strided sub-row, contiguous chunk), as a gather and as the
// scatter that undoes it.  Plus the walker's guarantees: a memo replay
// moves exactly what discovery moved, a caller's non-bijection is refused
// before any element moves, the leader-min rung allocates nothing, and a
// warm permuter refuses a permutation other than the one it memoized.
//
// Built with live failpoints (the alloc.aligned shim) and WITHOUT
// Checked contracts: the caller-permutation guards must hold in release
// builds on their own.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/context.hpp"
#include "core/cycle_walker.hpp"
#include "core/executor.hpp"
#include "core/failpoint.hpp"
#include "core/perm.hpp"
#include "core/tensor_nd.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;
using namespace inplace::detail;
namespace fp = inplace::failpoint;

constexpr scratch_rung all_rungs[] = {
    scratch_rung::full, scratch_rung::reduced, scratch_rung::cycle_follow};

/// Where slot i's block lives: elements [offset + i*stride, +width).
struct shape {
  const char* name;
  std::uint64_t offset;
  std::uint64_t stride;
  std::uint64_t width;
};

constexpr shape all_shapes[] = {
    {"element", 0, 1, 1},
    {"strided sub-row", 2, 5, 2},  // columns 2-3 of 5-wide rows
    {"chunk", 0, 3, 3},            // contiguous 3-element chunks
};

using perm_t = std::vector<std::uint64_t>;

std::vector<std::uint32_t> iota_buffer(const shape& s, std::uint64_t n) {
  std::vector<std::uint32_t> v(n * s.stride + s.offset);
  std::iota(v.begin(), v.end(), 1000u);
  return v;
}

/// Out-of-place model: gather block i <- block p[i], or the scatter
/// block p[i] <- block i; elements outside the blocks stay put.
std::vector<std::uint32_t> model(const std::vector<std::uint32_t>& src,
                                 const perm_t& p, const shape& s,
                                 bool scatter) {
  auto out = src;
  for (std::uint64_t i = 0; i < p.size(); ++i) {
    const std::uint64_t dst = scatter ? p[i] : i;
    const std::uint64_t from = scatter ? i : p[i];
    for (std::uint64_t k = 0; k < s.width; ++k) {
      out[s.offset + dst * s.stride + k] = src[s.offset + from * s.stride + k];
    }
  }
  return out;
}

/// Discovers (or replays) p's leaders on `rung`, then applies them
/// through the mover for `s` — the discover-then-apply composition every
/// memoizing consumer uses.  Returns the leaders.
perm_t walk(std::vector<std::uint32_t>& buf, const perm_t& p,
            scratch_rung rung, const shape& s, bool scatter,
            cycle_memo* memo = nullptr,
            const kernels::kernel_set* ks = nullptr) {
  const std::uint64_t n = p.size();
  const auto f = [&p](std::uint64_t i) { return p[i]; };
  visited_map v;
  v.allocate(n, rung);
  cycle_memo fresh;
  const perm_t& leaders = discover_or_replay<walk_check::external>(
      memo != nullptr ? *memo : fresh, 42, n, f, v);
  if (s.width == 1) {
    element_mover<std::uint32_t> mv(buf.data() + s.offset, s.stride);
    for (const std::uint64_t y : leaders) {
      move_cycle<walk_check::external>(mv, f, y, n, scatter);
    }
    return leaders;
  }
  util::aligned_vector<std::uint32_t> tmp(s.width);
  block_mover<std::uint32_t> mv(buf.data() + s.offset, s.stride, s.width,
                                tmp.data(), ks, ks != nullptr);
  for (const std::uint64_t y : leaders) {
    move_cycle<walk_check::external>(mv, f, y, n, scatter);
  }
  mv.finish();
  return leaders;
}

/// The leaders the walker must report: each nontrivial cycle's minimum,
/// in increasing order.
perm_t model_leaders(const perm_t& p) {
  perm_t out;
  std::vector<bool> seen(p.size(), false);
  for (std::uint64_t y = 0; y < p.size(); ++y) {
    std::uint64_t len = 0;
    for (std::uint64_t i = y; !seen[i]; i = p[i], ++len) {
      seen[i] = true;
    }
    if (len > 1) {
      out.push_back(y);
    }
  }
  return out;
}

/// The full matrix for one permutation: every rung x shape, gather with
/// discovery, gather replayed from the memo, and the scatter back.
void check_permutation(const perm_t& p, const kernels::kernel_set* ks) {
  const perm_t want_leaders = model_leaders(p);
  for (const shape& s : all_shapes) {
    const auto src = iota_buffer(s, p.size());
    const auto want = model(src, p, s, /*scatter=*/false);
    for (const scratch_rung rung : all_rungs) {
      cycle_memo memo;
      auto a = src;
      ASSERT_EQ(walk(a, p, rung, s, false, &memo, ks), want_leaders)
          << s.name << " " << rung_name(rung) << " n=" << p.size();
      ASSERT_EQ(a, want) << "discovery: " << s.name << " "
                         << rung_name(rung) << " n=" << p.size();
      ASSERT_TRUE(memo.ready);
      auto b = src;
      walk(b, p, rung, s, false, &memo, ks);
      ASSERT_EQ(b, a) << "replay: " << s.name << " " << rung_name(rung)
                      << " n=" << p.size();
      walk(a, p, rung, s, /*scatter=*/true, nullptr, ks);
      ASSERT_EQ(a, src) << "scatter: " << s.name << " " << rung_name(rung)
                        << " n=" << p.size();
    }
  }
}

perm_t random_perm(std::uint64_t n, util::xoshiro256& rng) {
  perm_t p(n);
  std::iota(p.begin(), p.end(), std::uint64_t{0});
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.uniform(0, i)]);
  }
  return p;
}

bool is_bijection(const perm_t& p) {
  std::vector<bool> seen(p.size(), false);
  for (const std::uint64_t v : p) {
    if (seen[v]) {
      return false;
    }
    seen[v] = true;
  }
  return true;
}

/// A caller's non-bijection must be refused with inplace::error before
/// a single element moves, on every rung and through every mover.
void check_refused(const perm_t& p) {
  for (const shape& s : all_shapes) {
    const auto src = iota_buffer(s, p.size());
    for (const scratch_rung rung : all_rungs) {
      auto a = src;
      cycle_memo memo;
      EXPECT_THROW(walk(a, p, rung, s, false, &memo), error)
          << s.name << " " << rung_name(rung) << " n=" << p.size();
      EXPECT_EQ(a, src) << "moved before refusing: " << s.name << " "
                        << rung_name(rung);
      EXPECT_FALSE(memo.ready) << "a refused map left a replayable memo";
    }
  }
}

TEST(Walker, EveryPermutationUpToSevenOnEveryRungAndMover) {
  for (std::uint64_t n = 0; n <= 7; ++n) {
    perm_t p(n);
    std::iota(p.begin(), p.end(), std::uint64_t{0});
    do {
      check_permutation(p, nullptr);
    } while (std::next_permutation(p.begin(), p.end()));
  }
}

TEST(Walker, RandomPermutationsUpToFiveThousand) {
  util::xoshiro256 rng(0x57A1C);
  const kernels::kernel_set& ks =
      kernels::set_for(kernels::resolve_tier(options{}.kernel));
  for (const std::uint64_t n :
       {std::uint64_t{64}, std::uint64_t{1000}, std::uint64_t{5000},
        rng.uniform(8, 5000), rng.uniform(8, 5000)}) {
    // Uniform permutations (a few long cycles) and sparse ones (many
    // short cycles and fixed points), through the portable copy and the
    // active kernel tier with streamed stores.
    const perm_t uniform = random_perm(n, rng);
    perm_t sparse(n);
    std::iota(sparse.begin(), sparse.end(), std::uint64_t{0});
    for (std::uint64_t k = 0; k < n / 8; ++k) {
      std::swap(sparse[rng.uniform(0, n)], sparse[rng.uniform(0, n)]);
    }
    const perm_t* both[] = {&uniform, &sparse};
    for (const perm_t* p : both) {
      check_permutation(*p, nullptr);
      check_permutation(*p, &ks);
    }
  }
}

TEST(Walker, NonBijectionIsRefusedBeforeAnythingMoves) {
  // Every map [0, n) -> [0, n) that is not a bijection, n <= 5.
  for (std::uint64_t n = 2; n <= 5; ++n) {
    perm_t p(n, 0);
    for (;;) {
      if (!is_bijection(p)) {
        check_refused(p);
      }
      std::uint64_t k = 0;
      while (k < n && ++p[k] == n) {
        p[k++] = 0;
      }
      if (k == n) {
        break;
      }
    }
  }
  // Random permutations with one entry clobbered, up to n = 5000.
  util::xoshiro256 rng(0xBAD);
  for (const std::uint64_t n :
       {std::uint64_t{9}, std::uint64_t{300}, std::uint64_t{5000}}) {
    for (int t = 0; t < 4; ++t) {
      perm_t p = random_perm(n, rng);
      const std::uint64_t at = rng.uniform(0, n);
      p[at] = p[(at + 1 + rng.uniform(0, n - 1)) % n];
      check_refused(p);
    }
  }
}

TEST(Walker, LeaderMinRungAllocatesNothing) {
  util::xoshiro256 rng(0x0111);
  const perm_t p = random_perm(777, rng);
  const auto f = [&p](std::uint64_t i) { return p[i]; };
  const shape& elem = all_shapes[0];
  const auto src = iota_buffer(elem, p.size());
  auto buf = src;
  // Chunk-grid pass over a 12 x 10 grid of 6-element chunks, and the
  // transposer's bottom rung over a 64 x 48 matrix.
  std::vector<double> grid(12 * 10 * 6);
  std::iota(grid.begin(), grid.end(), 0.0);
  const auto grid_src = grid;
  std::vector<double> mat(64 * 48);
  std::iota(mat.begin(), mat.end(), 0.0);
  const auto mat_src = mat;

  fp::scoped_trigger no_alloc("alloc.aligned", fp::mode::oom);
  visited_map v;
  EXPECT_EQ(acquire_visited(v, p.size(), [] {}), scratch_rung::cycle_follow);
  EXPECT_EQ(v.rung(), scratch_rung::cycle_follow);
  EXPECT_EQ(v.bytes(), 0u);
  const std::uint64_t attempts = fp::hits("alloc.aligned");
  EXPECT_EQ(attempts, 2u) << "the funnel tries exactly two allocating rungs";

  // Leader-min discovery interleaved with element moves: gather, then the
  // scatter back.
  element_mover<std::uint32_t> mv(buf.data());
  for (const bool scatter : {false, true}) {
    discover_cycles<walk_check::external>(
        p.size(), f, v, [&](std::uint64_t y) {
          move_cycle<walk_check::external>(mv, f, y, p.size(), scatter);
        });
    EXPECT_EQ(buf, scatter ? src : model(src, p, elem, false));
  }

  // The tensor chunk pass without chunk scratch, and its inverse.
  run_chunk_pass<double>(grid.data(), 12, 10, 6, v, nullptr);
  for (std::uint64_t i = 0; i < 12; ++i) {
    for (std::uint64_t j = 0; j < 10; ++j) {
      for (std::uint64_t k = 0; k < 6; ++k) {
        ASSERT_EQ(grid[(j * 12 + i) * 6 + k], grid_src[(i * 10 + j) * 6 + k]);
      }
    }
  }
  run_chunk_pass<double>(grid.data(), 10, 12, 6, v, nullptr);
  EXPECT_EQ(grid, grid_src);

  // The transposer's bottom rung: C2R then R2C restores the matrix.
  for (const direction dir : {direction::c2r, direction::r2c}) {
    transpose_plan plan;
    plan.m = 64;
    plan.n = 48;
    plan.dir = dir;
    run_cycle_follow(mat.data(), plan);
    if (dir == direction::c2r) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        for (std::uint64_t j = 0; j < 48; ++j) {
          ASSERT_EQ(mat[j * 64 + i], mat_src[i * 48 + j]);
        }
      }
    }
  }
  EXPECT_EQ(mat, mat_src);

  EXPECT_EQ(fp::hits("alloc.aligned"), attempts)
      << "a leader-min walk reached the aligned allocator";
}

// --- the caller-permutation trust boundary -----------------------------------

std::vector<int> permute_model(const std::vector<int>& src,
                               const std::vector<std::uint32_t>& pi) {
  std::vector<int> out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = src[pi[i]];
  }
  return out;
}

TEST(WalkerTrust, WarmPermuterRefusesAnotherPiOfTheSameLength) {
  // A permuter that memoized the cycles of pi_a must never replay them
  // for pi_b.  Release builds once trusted the caller here and applied
  // pi_a's leaders along pi_b's walks — a wrong buffer, silently.
  util::xoshiro256 rng(0x7A57);
  std::vector<std::uint32_t> pa(200);
  std::iota(pa.begin(), pa.end(), 0u);
  for (std::size_t i = pa.size(); i > 1; --i) {
    std::swap(pa[i - 1], pa[rng.uniform(0, i)]);
  }
  auto pb = pa;
  std::swap(pb[3], pb[150]);
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pa), false, options{}, sizeof(int));
  ASSERT_EQ(plan.kind, perm_kind::generic);
  std::vector<int> src(200);
  std::iota(src.begin(), src.end(), 5);
  auto a = src;
  permuter<int> p(plan, options{}, a.data());
  p.execute(a.data(), std::span<const std::uint32_t>(pa), false);  // warms
  ASSERT_EQ(a, permute_model(src, pa));

  auto b = src;
#if INPLACE_CHECKS_ENABLED
  // Checked builds refuse it earlier, at the fingerprint REQUIRE.
  EXPECT_THROW(p.execute(b.data(), std::span<const std::uint32_t>(pb), false),
               contract_violation);
#else
  EXPECT_THROW(p.execute(b.data(), std::span<const std::uint32_t>(pb), false),
               error);
#endif
  EXPECT_EQ(b, src) << "a refused permutation touched the buffer";
  // The memoized permutation still replays on the same instance.
  p.execute(b.data(), std::span<const std::uint32_t>(pa), false);
  EXPECT_EQ(b, permute_model(src, pa));
}

TEST(WalkerTrust, StructuredArenasKeyOnExactParameters) {
  // Two rotations of one length share no arena; the same rotation under
  // another index type does.
  transpose_context ctx;
  const std::size_t n = 90;
  std::vector<std::uint32_t> r7(n);
  std::vector<std::uint32_t> r11(n);
  for (std::size_t i = 0; i < n; ++i) {
    r7[i] = static_cast<std::uint32_t>((i + 7) % n);
    r11[i] = static_cast<std::uint32_t>((i + 11) % n);
  }
  const std::vector<std::int64_t> r7_wide(r7.begin(), r7.end());
  std::vector<int> src(n);
  std::iota(src.begin(), src.end(), 0);
  auto a = src;
  ctx.permute(a.data(), std::span<const std::uint32_t>(r7));
  EXPECT_EQ(a, permute_model(src, r7));
  auto b = src;
  ctx.permute(b.data(), std::span<const std::uint32_t>(r11));
  EXPECT_EQ(b, permute_model(src, r11));
  EXPECT_EQ(ctx.stats().plan_misses, 2u);
  auto c = src;
  ctx.permute(c.data(), std::span<const std::int64_t>(r7_wide));
  EXPECT_EQ(c, permute_model(src, r7));
  EXPECT_EQ(ctx.stats().plan_hits, 1u);
}

}  // namespace
