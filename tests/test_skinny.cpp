// Focused tests for the skinny engine (cpu/skinny.hpp), which carries the
// trickiest index reasoning in the library: fused pre-rotation + row
// shuffle with a head buffer (C2R), and the mirrored bottom-up sweep with
// a tail buffer (R2C).  Exercises every boundary of that reasoning:
// c = n (n divides m), c = 1 (coprime), b = 1, m barely above n, and all
// structure sizes in the paper's AoS range.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/transpose.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace {

using namespace inplace;

struct shape {
  std::uint64_t m;
  std::uint64_t n;
  const char* why;
};

std::ostream& operator<<(std::ostream& os, const shape& s) {
  return os << s.m << "x" << s.n << " (" << s.why << ")";
}

const shape kSkinnyShapes[] = {
    {33, 32, "m barely above n"},
    {64, 32, "n divides m: c = n, b = 1"},
    {96, 32, "c = n again"},
    {97, 32, "coprime: no pre-rotation"},
    {100, 25, "c = 25 = n"},
    {101, 25, "coprime"},
    {48, 12, "c = 12 = n"},
    {50, 12, "c = 2"},
    {51, 12, "c = 3"},
    {52, 12, "c = 4"},
    {54, 12, "c = 6"},
    {1000, 2, "minimal n"},
    {1001, 2, "minimal n, odd m"},
    {999, 3, "c = 3 = n"},
    {1000, 3, "coprime"},
    {4, 3, "tiny everything"},
    {35, 5, "c = 5 = n"},
    {36, 5, "coprime"},
    {2048, 31, "prime n"},
    {2047, 32, "m = 2^11 - 1"},
    {527, 17, "c = 17 = n"},
    {528, 17, "coprime"},
};

class SkinnyShapes : public ::testing::TestWithParam<shape> {};
INSTANTIATE_TEST_SUITE_P(EdgeShapes, SkinnyShapes,
                         ::testing::ValuesIn(kSkinnyShapes));

TEST_P(SkinnyShapes, C2RMatchesReferenceEngine) {
  const auto [m, n, why] = GetParam();
  options skinny;
  skinny.engine = engine_kind::skinny;
  options reference;
  reference.engine = engine_kind::reference;
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  auto b = a;
  c2r(a.data(), m, n, skinny);
  c2r(b.data(), m, n, reference);
  EXPECT_EQ(a, b);
}

TEST_P(SkinnyShapes, R2CMatchesReferenceEngine) {
  const auto [m, n, why] = GetParam();
  options skinny;
  skinny.engine = engine_kind::skinny;
  options reference;
  reference.engine = engine_kind::reference;
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  auto b = a;
  r2c(a.data(), m, n, skinny);
  r2c(b.data(), m, n, reference);
  EXPECT_EQ(a, b);
}

TEST_P(SkinnyShapes, RoundTrip) {
  const auto [m, n, why] = GetParam();
  options skinny;
  skinny.engine = engine_kind::skinny;
  auto a = util::iota_matrix<std::uint64_t>(m, n);
  const auto src = a;
  c2r(a.data(), m, n, skinny);
  r2c(a.data(), m, n, skinny);
  EXPECT_EQ(a, src);
}

TEST_P(SkinnyShapes, ByteElements) {
  // One-byte elements give the head/tail buffers the least slack.
  const auto [m, n, why] = GetParam();
  options skinny;
  skinny.engine = engine_kind::skinny;
  std::vector<std::uint8_t> a(m * n);
  for (std::size_t l = 0; l < a.size(); ++l) {
    a[l] = static_cast<std::uint8_t>(l * 37 + 11);
  }
  const auto src = a;
  c2r(a.data(), m, n, skinny);
  const auto want =
      util::reference_transpose(std::span<const std::uint8_t>(src), m, n);
  EXPECT_EQ(a, want);
}

TEST(SkinnyAllFieldCounts, EveryAoSStructSize) {
  // Structure sizes 2..32 (the Figure 7 workload) over several counts,
  // including counts adjacent to multiples of the structure size.
  util::xoshiro256 rng(55);
  options skinny;
  skinny.engine = engine_kind::skinny;
  for (std::uint64_t n = 2; n <= 32; ++n) {
    for (const std::uint64_t base : {std::uint64_t{257}, 8 * n, 8 * n + 1,
                                     rng.uniform(100, 3000)}) {
      const std::uint64_t m = std::max<std::uint64_t>(base, n + 1);
      auto a = util::iota_matrix<std::uint32_t>(m, n);
      const auto src = a;
      c2r(a.data(), m, n, skinny);
      const auto want = util::reference_transpose(
          std::span<const std::uint32_t>(src), m, n);
      ASSERT_EQ(util::first_mismatch(std::span<const std::uint32_t>(a),
                                     std::span<const std::uint32_t>(want)),
                -1)
          << m << "x" << n;
    }
  }
}

TEST(SkinnyRandomized, AgainstBlockedEngine) {
  util::xoshiro256 rng(56);
  options skinny;
  skinny.engine = engine_kind::skinny;
  options blocked;
  blocked.engine = engine_kind::blocked;
  for (int t = 0; t < 50; ++t) {
    const std::uint64_t n = rng.uniform(2, 33);
    const std::uint64_t m = rng.uniform(n + 1, 5000);
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    auto b = a;
    c2r(a.data(), m, n, skinny);
    c2r(b.data(), m, n, blocked);
    ASSERT_EQ(a, b) << m << "x" << n;

    r2c(a.data(), m, n, skinny);
    r2c(b.data(), m, n, blocked);
    ASSERT_EQ(a, b) << m << "x" << n << " (inverse)";
  }
}

// --- the parallel passes -----------------------------------------------------
//
// Every skinny pass runs on the plan's team once the matrix is over
// detail::skinny_team_floor_bytes(): the sweeps on one slab per thread,
// q / q^-1 as whole cycles plus segments of split cycles.  These cases sit
// just above the floor and check every team size against the team of one
// and against the reference engine, bit for bit.

/// Rows of n elements of `elem` bytes just above the team floor, rounded
/// up to a multiple of `mult` and then moved by `plus`.
std::uint64_t rows_over_floor(std::uint64_t n, std::size_t elem,
                              std::uint64_t mult, std::uint64_t plus) {
  const std::uint64_t rows = detail::skinny_team_floor_bytes() / (n * elem) + 1;
  return (rows + mult - 1) / mult * mult + plus;
}

/// Rows over the floor with gcd(m, n) == c and, unless c forces it, m
/// not a multiple of 3 or 4, so no team size of 2..4 divides it.
std::uint64_t rows_with_gcd(std::uint64_t n, std::size_t elem,
                            std::uint64_t c) {
  std::uint64_t m = rows_over_floor(n, elem, c, 0);
  while (std::gcd(m, n) != c || (c % 3 != 0 && m % 3 == 0) ||
         (c % 4 != 0 && m % 4 == 0)) {
    m += c;
  }
  return m;
}

/// Discovers q (or q^-1) of an m x n problem at skinny_segment_hops.
detail::cycle_memo q_cycles(std::uint64_t m, std::uint64_t n, bool inverse) {
  const transpose_math<fast_divmod> mm(m, n);
  detail::workspace<float> ws;
  detail::reserve_skinny(ws, m, n);
  detail::cycle_memo memo;
  const auto f = [&](std::uint64_t i) {
    return inverse ? mm.q_inv(i) : mm.q(i);
  };
  detail::discover_or_replay(memo, 1, m, f, ws.visited,
                             detail::skinny_segment_hops);
  return memo;
}

/// Coprime rows over the floor (rows_with_gcd) whose q has cycles both
/// shorter and longer than skinny_segment_hops, so a q / q^-1 team runs
/// both item kinds: groups of whole cycles and segments.
std::uint64_t rows_with_whole_and_split_cycles(std::uint64_t n,
                                               std::size_t elem) {
  std::uint64_t m = rows_with_gcd(n, elem, 1);
  for (;;) {
    const detail::cycle_memo memo = q_cycles(m, n, false);
    if (!memo.starts.empty() && !memo.splits.empty()) {
      return m;
    }
    do {
      ++m;
    } while (std::gcd(m, n) != 1 || m % 3 == 0 || m % 4 == 0);
  }
}

/// Runs the directed plan for (m, n, dir) with `opts` on a team of `team`
/// threads: the team is installed around construction too, so the
/// workspace sizes its slots for it.
template <typename T>
std::vector<T> run_on_team(const std::vector<T>& src, std::uint64_t m,
                           std::uint64_t n, direction dir, options opts,
                           int team) {
  util::thread_count_guard guard(team);
  auto buf = src;
  const transpose_plan plan =
      make_directed_plan(buf.data(), m, n, dir, opts, sizeof(T));
  transposer<T> tr(plan);
  tr(buf.data());
  return buf;
}

/// The team a skinny pass over (m, n) would get after reserve_skinny
/// under a thread_count_guard(team).
template <typename T>
std::uint64_t team_for_shape(std::uint64_t m, std::uint64_t n, int team) {
  util::thread_count_guard guard(team);
  detail::workspace<T> ws;
  detail::reserve_skinny(ws, m, n);
  return detail::skinny_team(ws, m, n);
}

template <typename T>
void check_teams(std::uint64_t m, std::uint64_t n, const options& opts,
                 const std::string& what) {
  SCOPED_TRACE(what + ": " + std::to_string(m) + "x" + std::to_string(n));
  options reference;
  reference.engine = engine_kind::reference;
  const auto src = util::iota_matrix<T>(m, n);
  for (const direction dir : {direction::c2r, direction::r2c}) {
    SCOPED_TRACE(dir == direction::c2r ? "c2r" : "r2c");
    const std::vector<T> want = run_on_team(src, m, n, dir, reference, 1);
    const std::vector<T> serial = run_on_team(src, m, n, dir, opts, 1);
    ASSERT_EQ(util::first_mismatch(std::span<const T>(serial),
                                   std::span<const T>(want)),
              -1)
        << "team of one differs from the reference engine";
    for (int team = 2; team <= 4; ++team) {
      SCOPED_TRACE("team " + std::to_string(team));
      const std::vector<T> got = run_on_team(src, m, n, dir, opts, team);
      ASSERT_EQ(util::first_mismatch(std::span<const T>(got),
                                     std::span<const T>(serial)),
                -1)
          << "team differs from the team of one";
    }
  }
}

TEST(SkinnyParallel, ShapesAboveTheFloorEngageTheTeam) {
#if defined(INPLACE_HAVE_OPENMP)
  const std::uint64_t m = rows_over_floor(7, sizeof(float), 1, 0);
  EXPECT_EQ(team_for_shape<float>(m, 7, 1), 1u);
  EXPECT_EQ(team_for_shape<float>(m, 7, 3), 3u);
  EXPECT_EQ(team_for_shape<float>(m, 7, 4), 4u);
  // Under the floor a plan keeps to the calling thread whatever the team.
  EXPECT_EQ(team_for_shape<float>(m / 2, 7, 4), 1u);
#else
  GTEST_SKIP() << "OpenMP not available";
#endif
}

TEST(SkinnyParallel, CoprimeShapesMatchTheTeamOfOne) {
  options skinny;
  skinny.engine = engine_kind::skinny;
  skinny.tile = options::tile_mode::off;
  check_teams<float>(rows_with_whole_and_split_cycles(7, sizeof(float)), 7,
                     skinny, "c = 1");
  check_teams<double>(rows_with_gcd(23, sizeof(double), 1), 23, skinny,
                      "c = 1, wide");
}

TEST(SkinnyParallel, GcdRichShapesMatchTheTeamOfOne) {
  options skinny;
  skinny.engine = engine_kind::skinny;
  skinny.tile = options::tile_mode::off;
  // c = n, b = 1: n divides m.
  check_teams<float>(rows_over_floor(12, sizeof(float), 12, 0), 12, skinny,
                     "c = n");
  check_teams<float>(rows_with_gcd(5, sizeof(float), 5), 5, skinny,
                     "c = n, m odd");
  // 1 < c < n.
  check_teams<double>(rows_with_gcd(24, sizeof(double), 6), 24, skinny,
                      "c = 6 of 24");
  check_teams<std::uint8_t>(rows_with_gcd(32, 1, 2), 32, skinny,
                            "c = 2, byte elements");
}

TEST(SkinnyParallel, TilePlansMatchTheTeamOfOne) {
  options skinny;
  skinny.engine = engine_kind::skinny;
  std::vector<float> probe32(1);
  const transpose_plan p32 = make_directed_plan(
      probe32.data(), 16 * 1024, 8, direction::c2r, skinny, sizeof(float));
  const transpose_plan p64 = make_directed_plan(
      probe32.data(), 16 * 1024, 8, direction::c2r, skinny, sizeof(double));
  if (p32.tile_block == 0 || p64.tile_block == 0) {
    GTEST_SKIP() << "the resolved kernel tier has no in-register tile pass";
  }
  // f32 x 8 (W = 16 on AVX-512) and f64 x 8 (W = 8): chunk rows of 8
  // chunks, m a multiple of W with m / W odd.
  const std::uint64_t w32 = p32.tile_block;
  const std::uint64_t w64 = p64.tile_block;
  const std::uint64_t m32 =
      (rows_over_floor(8, sizeof(float), w32, 0) / w32 | 1) * w32;
  const std::uint64_t m64 =
      (rows_over_floor(8, sizeof(double), w64, 0) / w64 | 1) * w64;
  ASSERT_NE(make_directed_plan(probe32.data(), m32, 8, direction::c2r, skinny,
                               sizeof(float))
                .tile_block,
            0u);
  check_teams<float>(m32, 8, skinny, "tile f32 x 8");
  check_teams<double>(m64, 8, skinny, "tile f64 x 8");
  check_teams<float>(m32, 5, skinny, "tile f32 x 5");
}

TEST(SkinnyParallel, SplitAndWholeCyclesBothOccur) {
  // The c = 1 f32 x 7 shape above walks cycles both shorter and longer
  // than skinny_segment_hops, so both item kinds of the team loop run.
  const std::uint64_t m = rows_with_whole_and_split_cycles(7, sizeof(float));
  for (const bool inverse : {false, true}) {
    const detail::cycle_memo memo = q_cycles(m, 7, inverse);
    EXPECT_FALSE(memo.starts.empty()) << "no cycle short enough to stay whole";
    EXPECT_FALSE(memo.splits.empty()) << "no cycle long enough to split";
    EXPECT_LE(memo.splits.size(), detail::skinny_saved_rows(m));
  }
}

TEST(SkinnyParallel, MemoWithMoreSegmentsThanSavedRowsIsRefused) {
  // A memo split against a reserve_skinny workspace, replayed on one
  // sized by workspace::reserve (no saved rows): refused in every build
  // mode before any row moves.
  const std::uint64_t m = rows_with_whole_and_split_cycles(7, sizeof(float));
  const transpose_math<fast_divmod> mm(m, 7);
  detail::workspace<float> split_ws;
  detail::reserve_skinny(split_ws, m, 7);
  detail::cycle_memo memo;
  auto buf = util::iota_matrix<float>(m, 7);
  detail::skinny_permute_q(buf.data(), mm, split_ws, &memo, nullptr, false);
  ASSERT_FALSE(memo.splits.empty());
  detail::workspace<float> plain_ws;
  plain_ws.reserve(m, 7, 7);
  const auto before = buf;
  EXPECT_THROW(detail::skinny_permute_q(buf.data(), mm, plain_ws, &memo,
                                        nullptr, false),
               inplace::error);
  EXPECT_EQ(buf, before);
}

// --- the fused passes' per-residue tables -----------------------------------
//
// Every row of the fused row passes that reads no boundary window gathers
// through the table row for its residue i mod n (skinny_scatter_table /
// skinny_gather_table in ws.index); the rows next to a window keep the
// stepper.  These cases pin both kinds of row, on every team size, to the
// reference engine and, pass by pass, to Eqs. 23-24 in closed form.

TEST(SkinnyResidueTable, TeamsMatchTheReferenceEngine) {
  options skinny;
  skinny.engine = engine_kind::skinny;
  skinny.tile = options::tile_mode::off;
  // m not a multiple of 3 or 4 (rows_with_gcd), so the slabs differ.
  check_teams<float>(rows_with_gcd(7, sizeof(float), 1), 7, skinny,
                     "c = 1");
  check_teams<float>(rows_with_gcd(12, sizeof(float), 4), 12, skinny,
                     "1 < c < n");
  check_teams<double>(rows_with_gcd(6, sizeof(double), 6), 6, skinny,
                      "c = n, b = 1");
  check_teams<std::uint8_t>(rows_with_gcd(24, 1, 3), 24, skinny,
                            "u8, indexed loop");
  check_teams<std::uint16_t>(rows_with_gcd(10, 2, 10), 10, skinny,
                             "u16, c = n, indexed loop");
}

TEST(SkinnyResidueTable, TilePlansMatchTheReferenceEngine) {
  // The chunk grid: W-lane chunks are wider than a gather lane, so its
  // table rows take the indexed loop.
  options skinny;
  skinny.engine = engine_kind::skinny;
  std::vector<float> probe(1);
  const transpose_plan p32 = make_directed_plan(
      probe.data(), 16 * 1024, 8, direction::c2r, skinny, sizeof(float));
  const transpose_plan p64 = make_directed_plan(
      probe.data(), 16 * 1024, 8, direction::c2r, skinny, sizeof(double));
  if (p32.tile_block == 0 || p64.tile_block == 0) {
    GTEST_SKIP() << "the resolved kernel tier has no in-register tile pass";
  }
  const std::uint64_t w32 = p32.tile_block;
  const std::uint64_t w64 = p64.tile_block;
  // An odd chunk count: c = 1 on the chunk grid.
  const std::uint64_t m32 =
      (rows_over_floor(8, sizeof(float), w32, 0) / w32 | 1) * w32;
  // A chunk count of 4 mod 8: c = 4 on the chunk grid.
  const std::uint64_t m64 =
      (rows_over_floor(8, sizeof(double), w64, 0) / w64 / 8 * 8 + 12) * w64;
  check_teams<float>(m32, 8, skinny, "tile f32 x 8");
  check_teams<double>(m64, 8, skinny, "tile f64 x 8, c = 4");
}

/// Eqs. 23-24 applied out of place: C2R's fused pass sends
/// A[(i + ⌊j/b⌋) mod m][j] to row i, column d'_i(j); R2C's is its
/// inverse, row i, column j <- A[s][d'_s(j)] with s = (i - ⌊j/b⌋) mod m.
template <typename T>
std::vector<T> fused_closed_form(const std::vector<T>& src, std::uint64_t m,
                                 std::uint64_t n, bool c2r) {
  const transpose_math<fast_divmod> mm(m, n);
  std::vector<T> out(src.size());
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t rot = mm.prerotate_offset(j);
      if (c2r) {
        out[i * n + mm.d_prime(i, j)] = src[((i + rot) % m) * n + j];
      } else {
        const std::uint64_t s = (i + m - rot) % m;
        out[i * n + j] = src[s * n + mm.d_prime(s, j)];
      }
    }
  }
  return out;
}

/// Runs one fused pass directly on a workspace with `slots` team slots,
/// whatever the team floor, under a team of `team` threads.
template <typename T>
std::vector<T> fused_pass_on(const std::vector<T>& src, std::uint64_t m,
                             std::uint64_t n, bool c2r, std::uint64_t slots,
                             int team, const kernels::kernel_set* ks) {
  util::thread_count_guard guard(team);
  const transpose_math<fast_divmod> mm(m, n);
  detail::workspace<T> ws;
  detail::reserve_skinny(ws, m, n, 1);
  ws.team.resize((slots - 1) * detail::skinny_slot_stride<T>(n));
  auto buf = src;
  if (c2r) {
    detail::skinny_fused_scatter(buf.data(), mm, ws, ks, false);
  } else {
    detail::skinny_fused_gather(buf.data(), mm, ws, ks, false);
  }
  return buf;
}

template <typename T>
void check_short_slabs(std::uint64_t m, std::uint64_t n) {
  SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) + ", " +
               std::to_string(sizeof(T)) + "-byte elements");
  const auto src = util::iota_matrix<T>(m, n);
  const kernels::kernel_set& native =
      kernels::set_for(kernels::native_tier());
  for (const bool c2r : {true, false}) {
    SCOPED_TRACE(c2r ? "fused scatter" : "fused gather");
    const std::vector<T> want = fused_closed_form(src, m, n, c2r);
    const kernels::kernel_set* const sets[] = {&native, nullptr};
    for (const kernels::kernel_set* ks : sets) {
      for (int team = 1; team <= 4; ++team) {
        SCOPED_TRACE("team " + std::to_string(team) +
                     (ks == nullptr ? ", untuned" : ", kernel set"));
        const std::vector<T> got = fused_pass_on(src, m, n, c2r, 4, team, ks);
        ASSERT_EQ(util::first_mismatch(std::span<const T>(got),
                                       std::span<const T>(want)),
                  -1);
      }
    }
  }
}

TEST(SkinnyResidueTable, ShortSlabsMatchTheClosedForm) {
  // skinny_team keeps every slab at least n rows long, so the shortest
  // slabs are n to 2n - 1 rows: with c = n a slab of n rows has a single
  // table row and n - 1 window rows, and no slab sees every residue.
  // Four slots bypass the team floor, which these small shapes sit under.
  check_short_slabs<float>(4 * 7, 7);             // c = n, slabs of n
  check_short_slabs<float>(4 * 7 + 3, 7);         // c = 1, m % 4 != 0
  check_short_slabs<double>(4 * 12 + 6, 12);      // c = 6
  check_short_slabs<float>(5 * 12 + 8, 12);       // c = 4, slabs of 17
  check_short_slabs<std::uint8_t>(4 * 9 + 3, 9);  // c = 3, bytes
  check_short_slabs<std::uint16_t>(3 * 5 + 1, 5); // c = 1, shorts
  check_short_slabs<float>(33, 32);               // one slab, m = n + 1
}

TEST(SkinnyResidueTable, RefillingTheTablesKeepsTheCachedBytes) {
  // The tables live in ws.index, which reserve_skinny sized to n x n: a
  // second fill (a second execution, either direction) grows nothing.
  const std::uint64_t n = 12;
  const std::uint64_t m = rows_with_gcd(n, sizeof(float), 4);
  options skinny;
  skinny.engine = engine_kind::skinny;
  skinny.tile = options::tile_mode::off;
  for (const direction dir : {direction::c2r, direction::r2c}) {
    auto buf = util::iota_matrix<float>(m, n);
    transposer<float> tr(
        make_directed_plan(buf.data(), m, n, dir, skinny, sizeof(float)));
    tr(buf.data());
    const std::size_t cached = tr.cached_bytes();
    tr(buf.data());
    EXPECT_EQ(tr.cached_bytes(), cached);
  }
  const transpose_math<fast_divmod> mm(m, n);
  detail::workspace<float> ws;
  detail::reserve_skinny(ws, m, n);
  const std::size_t bytes = ws.bytes();
  const std::uint64_t* table = ws.index.data();
  auto buf = util::iota_matrix<float>(m, n);
  detail::skinny_fused_scatter(buf.data(), mm, ws, nullptr, false);
  detail::skinny_fused_gather(buf.data(), mm, ws, nullptr, false);
  EXPECT_EQ(ws.bytes(), bytes);
  EXPECT_EQ(ws.index.data(), table);
  EXPECT_EQ(buf, util::iota_matrix<float>(m, n));
}

// --- the chunked passes -------------------------------------------------------
//
// From n B rows up (B the fewest rows spanning skinny_chunk_bytes), rows
// of at most skinny_chunk_row_bytes take the chunked form (DESIGN §17.1):
// pass 1 transposes each block of B n structures of the m' = n B
// ⌊m / (n B)⌋-row prefix into its n field runs, pass 2 is the identity,
// and pass 3 walks the B-row chunks and spreads the s = m - m' tail
// structures.  gcd(m, n) = gcd(s, n), so s picks c: s = 0 gives c = n.

/// Rows of n elements of `elem` bytes over the team floor: whole blocks of
/// n B rows, then `tail` more.
std::uint64_t chunked_rows(std::uint64_t n, std::size_t elem,
                           std::uint64_t tail) {
  const std::uint64_t block =
      n * ((detail::skinny_chunk_bytes + n * elem - 1) / (n * elem));
  const std::uint64_t rows =
      detail::skinny_team_floor_bytes() / (n * elem) + 1;
  return (rows + block - 1) / block * block + tail;
}

TEST(SkinnyChunked, LayoutFollowsTheRowRule) {
  // B: the fewest rows spanning a chunk.
  const detail::chunk_layout f7 = detail::skinny_chunk_layout<float>(5000, 7);
  EXPECT_EQ(f7.rows, 147u);  // 147 x 28 = 4116 bytes
  EXPECT_EQ(f7.chunks, 5000u / 1029);
  EXPECT_EQ(f7.prefix + f7.tail, 5000u);
  EXPECT_LT(f7.tail, 7u * 147);
  // Under n B rows: the row walk.
  EXPECT_FALSE(detail::skinny_chunk_layout<float>(1028, 7).chunked());
  EXPECT_TRUE(detail::skinny_chunk_layout<float>(1029, 7).chunked());
  // Rows wider than skinny_chunk_row_bytes chunk only from the floor up.
  const std::uint64_t wide =
      (detail::skinny_chunk_floor_bytes + 24 * sizeof(double) - 1) /
      (24 * sizeof(double));
  EXPECT_FALSE(detail::skinny_chunk_layout<double>(wide - 1, 24).chunked());
  EXPECT_TRUE(detail::skinny_chunk_layout<double>(wide, 24).chunked());
  EXPECT_TRUE(detail::skinny_chunk_layout<double>(5000, 5).chunked());
  EXPECT_TRUE(detail::skinny_chunk_layout<double>(50000, 8).chunked());
  EXPECT_FALSE(detail::skinny_chunk_layout<double>(50000, 9).chunked());
}

TEST(SkinnyChunked, TeamsMatchTheReferenceEngine) {
  options skinny;
  skinny.engine = engine_kind::skinny;
  skinny.tile = options::tile_mode::off;
  check_teams<float>(chunked_rows(7, sizeof(float), 0), 7, skinny,
                     "f32, s = 0, c = n");
  check_teams<float>(chunked_rows(7, sizeof(float), 500), 7, skinny,
                     "f32, 0 < s < n B, c = 1");
  check_teams<float>(chunked_rows(10, sizeof(float), 4), 10, skinny,
                     "f32, 1 < c < n");
  check_teams<float>(1000, 7, skinny, "f32, m < n B: the row walk");
  check_teams<double>(chunked_rows(3, sizeof(double), 2), 3, skinny,
                      "f64, c = 1");
  check_teams<double>(chunked_rows(4, sizeof(double), 6), 4, skinny,
                      "f64, 1 < c < n");
  check_teams<double>(chunked_rows(5, sizeof(double), 0), 5, skinny,
                      "f64, s = 0, c = n");
  check_teams<std::uint8_t>(chunked_rows(9, 1, 3), 9, skinny,
                            "u8, 1 < c < n");
  check_teams<std::uint8_t>(chunked_rows(9, 1, 4103), 9, skinny,
                            "u8, s = n B - 1");
  check_teams<std::uint16_t>(chunked_rows(10, 2, 0), 10, skinny,
                             "u16, s = 0");
  check_teams<std::uint16_t>(chunked_rows(10, 2, 7), 10, skinny,
                             "u16, c = 1");
}

/// Pass 1 of a chunked layout, done naively: `hook` on every row, then
/// each prefix block copied aside and written back one field run at a
/// time (run x holds field x of the block's B n structures in order).
template <typename E, typename Hook>
void naive_block_transpose(E* a, std::uint64_t n,
                           const detail::chunk_layout& cl, Hook& hook) {
  hook(a, cl.prefix + cl.tail);
  const std::uint64_t bn = cl.rows * n;
  std::vector<E> block(bn * n);
  for (std::uint64_t y = 0; y < cl.chunks; ++y) {
    E* rows = a + y * bn * n;
    std::copy(rows, rows + bn * n, block.begin());
    for (std::uint64_t x = 0; x < n; ++x) {
      for (std::uint64_t t = 0; t < bn; ++t) {
        rows[x * bn + t] = block[t * n + x];
      }
    }
  }
}

/// The tile plans' passes (core/executor.hpp's skinny_passes over W-lane
/// chunks, the tile pass riding the fused row pass as its block hook) in
/// the chunked layout with chunks of `rows` rows.  Tile chunk rows are 512
/// bytes, so the plans reach that layout from skinny_chunk_floor_bytes
/// up; a small B brings it to test size.  Pass 1 must equal the hook and
/// the naive per-block transpose, C2R the transposition, and R2C must
/// restore the buffer, on teams 1-4, with the tail's rows taking the hook
/// too.
template <typename T, unsigned W>
void check_tile_chunks(std::uint64_t mc, std::uint64_t n, std::uint64_t rows,
                       const kernels::kernel_set& ks) {
  using E = kernels::lane_chunk<T, W>;
  const std::uint64_t m = mc * W;
  SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) + ", W = " +
               std::to_string(W) + ", B = " + std::to_string(rows));
  const auto src = util::iota_matrix<T>(m, n);
  const auto want = util::reference_transpose(std::span<const T>(src), m, n);
  const transpose_math<fast_divmod> mm(mc, n);
  const detail::chunk_layout cl = detail::make_chunk_layout(mc, n, rows);
  ASSERT_TRUE(cl.chunked());
  auto fwd = [n](E* r, std::uint64_t k) {
    kernels::tile_pass_portable(reinterpret_cast<T*>(r), n, W, k, true);
  };
  auto inv = [n](E* r, std::uint64_t k) {
    kernels::tile_pass_portable(reinterpret_cast<T*>(r), n, W, k, false);
  };
  auto pass_one = src;
  naive_block_transpose(reinterpret_cast<E*>(pass_one.data()), n, cl, fwd);
  for (int team = 1; team <= 4; ++team) {
    SCOPED_TRACE("team " + std::to_string(team));
    util::thread_count_guard guard(team);
    auto buf = src;
    E* a = reinterpret_cast<E*>(buf.data());
    detail::workspace<E> ws;
    detail::reserve_skinny_as(ws, mc, n, static_cast<std::uint64_t>(team),
                              cl);
    detail::cycle_memo memo;
    detail::skinny_fused_scatter_as(a, mm, cl, ws, &ks, false, fwd);
    ASSERT_EQ(buf, pass_one) << "pass 1 differs from the block transpose";
    detail::skinny_rotate_p_as(a, mm, cl, ws, &ks, false);
    detail::chunk_permute(a, mc, n, cl, ws, &memo, &ks, false, /*c2r=*/true);
    ASSERT_EQ(util::first_mismatch(std::span<const T>(buf),
                                   std::span<const T>(want)),
              -1)
        << "chunked C2R differs from the transposition";
    detail::chunk_permute(a, mc, n, cl, ws, nullptr, nullptr, false,
                          /*c2r=*/false);
    detail::skinny_rotate_p_inv_as(a, mm, cl, ws, nullptr, false);
    detail::skinny_fused_gather_as(a, mm, cl, ws, nullptr, false, inv);
    ASSERT_EQ(buf, src) << "chunked R2C did not restore the buffer";
  }
}

template <typename T>
void check_tile_chunks_at(unsigned lanes, std::uint64_t mc, std::uint64_t n,
                          std::uint64_t rows, const kernels::kernel_set& ks) {
  switch (lanes) {
    case 4:
      check_tile_chunks<T, 4>(mc, n, rows, ks);
      return;
    case 8:
      check_tile_chunks<T, 8>(mc, n, rows, ks);
      return;
    case 16:
      check_tile_chunks<T, 16>(mc, n, rows, ks);
      return;
    default:
      FAIL() << "unexpected tile width " << lanes;
  }
}

TEST(SkinnyChunked, TilePlansTakeTheHookOnTailRows) {
  const kernels::kernel_set& native =
      kernels::set_for(kernels::native_tier());
  const unsigned w32 = kernels::tile_lanes<float>(native);
  const unsigned w64 = kernels::tile_lanes<double>(native);
  if (w32 == 0 || w64 == 0) {
    GTEST_SKIP() << "the native kernel tier has no in-register tile pass";
  }
  // f32 x 8 and f64 x 8 on chunk grids of 2-row chunks (n B = 16): s = 0
  // (c = n), s = 3 (c = 1) and s = 6 (c = 2), several blocks per slab.
  for (const std::uint64_t tail : {0, 3, 6}) {
    check_tile_chunks_at<float>(w32, 16 * 9 + tail, 8, 2, native);
    check_tile_chunks_at<double>(w64, 16 * 9 + tail, 8, 2, native);
  }
  check_tile_chunks_at<float>(w32, 24 * 7 + 5, 8, 3, native);
}

/// skinny_fused_scatter on m x n elements of T, teams 1-4, with and
/// without a kernel set: the naive per-block transpose where the layout
/// is chunked, the row form's fused pass over the whole matrix where it
/// is not (m < n B).
template <typename T>
void check_pass_one(std::uint64_t m, std::uint64_t n, const char* what) {
  SCOPED_TRACE(std::string(what) + ": " + std::to_string(m) + "x" +
               std::to_string(n));
  const transpose_math<fast_divmod> mm(m, n);
  const detail::chunk_layout cl = detail::skinny_chunk_layout<T>(m, n);
  const auto src = util::iota_matrix<T>(m, n);
  auto want = src;
  detail::no_block_transform none;
  if (cl.chunked()) {
    naive_block_transpose(want.data(), n, cl, none);
  } else {
    detail::workspace<T> ws;
    detail::reserve_skinny(ws, m, n);
    detail::fused_scatter_pass(want.data(), mm, ws, nullptr, false, none);
  }
  const kernels::kernel_set* const sets[] = {
      &kernels::set_for(kernels::native_tier()), nullptr};
  for (int team = 1; team <= 4; ++team) {
    for (const kernels::kernel_set* ks : sets) {
      SCOPED_TRACE("team " + std::to_string(team) +
                   (ks == nullptr ? ", untuned" : ", native kernels"));
      util::thread_count_guard guard(team);
      auto buf = src;
      detail::workspace<T> ws;
      detail::reserve_skinny(ws, m, n);
      detail::skinny_fused_scatter(buf.data(), mm, ws, ks, false);
      ASSERT_EQ(util::first_mismatch(std::span<const T>(buf),
                                     std::span<const T>(want)),
                -1);
    }
  }
}

TEST(SkinnyChunked, PassOneIsTheBlockTranspose) {
  check_pass_one<float>(chunked_rows(7, sizeof(float), 0), 7, "f32, s = 0");
  check_pass_one<float>(chunked_rows(7, sizeof(float), 500), 7,
                        "f32, 0 < s < n B");
  check_pass_one<float>(1000, 7, "f32, m < n B: the row form");
  check_pass_one<double>(chunked_rows(3, sizeof(double), 0), 3,
                         "f64, s = 0");
  check_pass_one<double>(chunked_rows(5, sizeof(double), 7), 5,
                         "f64, 0 < s < n B");
  check_pass_one<double>(300, 5, "f64, m < n B: the row form");
  check_pass_one<std::uint8_t>(chunked_rows(9, 1, 0), 9, "u8, s = 0");
  check_pass_one<std::uint8_t>(chunked_rows(9, 1, 4103), 9,
                               "u8, s = n B - 1");
  check_pass_one<std::uint16_t>(chunked_rows(10, 2, 0), 10, "u16, s = 0");
  check_pass_one<std::uint16_t>(chunked_rows(10, 2, 7), 10,
                                "u16, 0 < s < n B");
  check_pass_one<std::uint16_t>(2000, 10, "u16, m < n B: the row form");

  const kernels::kernel_set& native =
      kernels::set_for(kernels::native_tier());
  const unsigned w32 = kernels::tile_lanes<float>(native);
  const unsigned w64 = kernels::tile_lanes<double>(native);
  if (w32 == 0 || w64 == 0) {
    GTEST_SKIP() << "the native kernel tier has no in-register tile pass";
  }
  // f32 x 8 and f64 x 8 on 2-row chunks (n B = 16): s = 0 and s = 5.
  for (const std::uint64_t tail : {0, 5}) {
    check_tile_chunks_at<float>(w32, 16 * 9 + tail, 8, 2, native);
    check_tile_chunks_at<double>(w64, 16 * 9 + tail, 8, 2, native);
  }
}

TEST(SkinnyChunked, UntunedPassesKeepTheWorkspaceBytes) {
  // The memo-less, kernel-less passes the executor's rollback runs: the
  // chunk walk records only into the split lists reserve_skinny sized,
  // and every buffer stays where it was.
  const std::uint64_t m = chunked_rows(7, sizeof(float), 500);
  const transpose_math<fast_divmod> mm(m, 7);
  ASSERT_TRUE(detail::skinny_chunk_layout<float>(m, 7).chunked());
  detail::workspace<float> ws;
  detail::reserve_skinny(ws, m, 7);
  const std::size_t bytes = ws.bytes();
  const float* saved = ws.saved.data();
  auto buf = util::iota_matrix<float>(m, 7);
  const auto want =
      util::reference_transpose(std::span<const float>(buf), m, 7);
  detail::skinny_fused_scatter(buf.data(), mm, ws, nullptr, false);
  detail::skinny_rotate_p(buf.data(), mm, ws, nullptr, false);
  detail::skinny_permute_q(buf.data(), mm, ws, nullptr, nullptr, false);
  EXPECT_EQ(buf, want);
  detail::skinny_permute_q_inv(buf.data(), mm, ws, nullptr, nullptr, false);
  detail::skinny_rotate_p_inv(buf.data(), mm, ws, nullptr, false);
  detail::skinny_fused_gather(buf.data(), mm, ws, nullptr, false);
  EXPECT_EQ(buf, util::iota_matrix<float>(m, 7));
  EXPECT_EQ(ws.bytes(), bytes);
  EXPECT_EQ(ws.saved.data(), saved);
}

TEST(SkinnyChunked, WorkspaceWithoutBlockBuffersIsRefused) {
  // A workspace reserve_skinny did not size for the chunked form: every
  // chunked pass that needs ws.saved refuses it before moving anything.
  const std::uint64_t m = chunked_rows(7, sizeof(float), 500);
  const transpose_math<fast_divmod> mm(m, 7);
  detail::workspace<float> plain;
  plain.reserve(m, 7, 7);
  auto buf = util::iota_matrix<float>(m, 7);
  const auto before = buf;
  EXPECT_THROW(
      detail::skinny_fused_scatter(buf.data(), mm, plain, nullptr, false),
      inplace::error);
  detail::cycle_memo memo;
  EXPECT_THROW(detail::skinny_permute_q_inv(buf.data(), mm, plain, &memo,
                                            nullptr, false),
               inplace::error);
  EXPECT_EQ(buf, before);
}

}  // namespace
