// Tests for the permcheck verification core (core/verify.hpp): clean
// sweeps verify every equation family, each seeded index bug is caught
// loudly with a diagnostic naming the broken equation, and the verifier
// agrees with an actual engine-level transposition on the same shapes.

#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/transpose.hpp"
#include "cpu/skinny.hpp"
#include "util/matrix.hpp"

namespace {

using inplace::verify::fault;
using inplace::verify::report;

std::string joined_messages(const report& rep) {
  std::string all;
  for (const auto& msg : rep.messages) {
    all += msg;
    all += '\n';
  }
  return all;
}

TEST(Permcheck, CleanSweepVerifiesAllShapes) {
  inplace::verify::sweep_options opt;
  opt.max_extent = 48;
  const report rep = inplace::verify::run_sweep(opt);
  EXPECT_TRUE(rep.ok()) << joined_messages(rep);
  EXPECT_EQ(rep.shapes, 47u * 47u);  // every (m, n) in [2, 48]^2
  EXPECT_GT(rep.checks, 0u);
}

TEST(Permcheck, PlainDivmodPolicySweep) {
  inplace::verify::sweep_options opt;
  opt.max_extent = 24;
  opt.use_plain_divmod = true;
  const report rep = inplace::verify::run_sweep(opt);
  EXPECT_TRUE(rep.ok()) << joined_messages(rep);
  EXPECT_EQ(rep.shapes, 23u * 23u);
}

TEST(Permcheck, PrimeAndDegenerateGcdShapes) {
  // Coprime (c = 1, no pre-rotation), square (c = m) and highly composite
  // shapes exercise different branches of Eqs. 23/31/34.
  for (const auto& [m, n] : {std::pair<std::uint64_t, std::uint64_t>{97, 89},
                             {64, 64},
                             {60, 48},
                             {2, 512},
                             {512, 2},
                             {509, 503}}) {
    const report rep = inplace::verify::verify_shape(m, n);
    EXPECT_TRUE(rep.ok()) << joined_messages(rep);
  }
}

// --- seeded bugs must fail loudly -------------------------------------------

TEST(Permcheck, SeededRowShuffleBugIsCaught) {
  // The off-by-one wrap (u > m instead of u >= m) needs gcd > 1 and
  // m % n != 0 to change an index; (6, 4) is the smallest such shape.
  const report rep =
      inplace::verify::verify_shape(6, 4, fault::row_shuffle_wrap);
  ASSERT_FALSE(rep.ok()) << "planted Eq. 24 bug was not detected";
  EXPECT_NE(joined_messages(rep).find("Eq. 24"), std::string::npos)
      << joined_messages(rep);
}

TEST(Permcheck, SeededInverseBranchBugIsCaught) {
  const report rep =
      inplace::verify::verify_shape(7, 5, fault::inverse_branch);
  ASSERT_FALSE(rep.ok()) << "planted Eq. 31 bug was not detected";
  EXPECT_NE(joined_messages(rep).find("Eq. 31"), std::string::npos)
      << joined_messages(rep);
}

TEST(Permcheck, SeededColumnShuffleBugIsCaught) {
  const report rep =
      inplace::verify::verify_shape(6, 4, fault::column_shuffle_drift);
  ASSERT_FALSE(rep.ok()) << "planted Eq. 33 bug was not detected";
  const std::string msgs = joined_messages(rep);
  EXPECT_TRUE(msgs.find("Eq. 33") != std::string::npos ||
              msgs.find("Eq. 34") != std::string::npos ||
              msgs.find("Eq. 26") != std::string::npos)
      << msgs;
}

TEST(Permcheck, SeededFastdivBugIsCaught) {
  const report rep =
      inplace::verify::verify_shape(6, 4, fault::fastdiv_magic);
  ASSERT_FALSE(rep.ok()) << "planted reciprocal bug was not detected";
  EXPECT_NE(joined_messages(rep).find("fastdiv"), std::string::npos)
      << joined_messages(rep);
}

TEST(Permcheck, SeededBugSweepFailsAcrossShapes) {
  inplace::verify::sweep_options opt;
  opt.max_extent = 16;
  opt.inject = fault::row_shuffle_wrap;
  const report rep = inplace::verify::run_sweep(opt);
  EXPECT_FALSE(rep.ok());
  EXPECT_GT(rep.failures, 0u);
  EXPECT_FALSE(rep.messages.empty());
}

// --- the skinny q / q^-1 segment split ---------------------------------------

TEST(Permcheck, SegmentSplitOfQIsAParallelSchedule) {
  // Skinny shapes (n <= 32 < m) at segment lengths from one hop up to
  // the engine's own: every split writes each slot once, reads only its
  // own slots and closes on its successor's saved row.
  for (const auto& [m, n] : {std::pair<std::uint64_t, std::uint64_t>{5, 4},
                             {97, 7},
                             {96, 12},
                             {2047, 32},
                             {4099, 5},
                             {9000, 24}}) {
    const inplace::transpose_math<inplace::fast_divmod> mm(m, n);
    for (const std::uint64_t seg :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{5},
          std::uint64_t{64}, inplace::detail::skinny_segment_hops}) {
      report rep;
      EXPECT_TRUE(inplace::verify::check_segments(mm, seg, rep))
          << joined_messages(rep);
      EXPECT_GT(rep.checks, 0u);
    }
  }
}

// --- the skinny fused passes' per-residue tables -----------------------------

TEST(Permcheck, ResidueTablesMatchEq24OnEverySkinnyRow) {
  // c = n (b = 1), 1 < c < n and c = 1, up to the skinny column limit.
  for (const auto& [m, n] : {std::pair<std::uint64_t, std::uint64_t>{5, 4},
                             {96, 12},
                             {100, 12},
                             {97, 7},
                             {64, 32},
                             {2047, 32}}) {
    const inplace::transpose_math<inplace::fast_divmod> mm(m, n);
    report rep;
    EXPECT_TRUE(inplace::verify::check_residue_tables(mm, fault::none, rep))
        << joined_messages(rep);
    EXPECT_GE(rep.checks, 2 * m * n);
  }
}

TEST(Permcheck, SeededResidueBugIsCaught) {
  const report rep =
      inplace::verify::verify_shape(9, 4, fault::residue_off_by_one);
  ASSERT_FALSE(rep.ok()) << "planted residue bug was not detected";
  EXPECT_NE(joined_messages(rep).find("residue"), std::string::npos)
      << joined_messages(rep);
}

// --- the verifier models what the engines actually do ------------------------

TEST(Permcheck, CompositionMatchesEngineTransposition) {
  // The algebraic composition check and a real engine execution must agree:
  // any shape the sweep passes transposes correctly through the library.
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{30, 42},
                             {41, 33},
                             {16, 256}}) {
    ASSERT_TRUE(inplace::verify::verify_shape(m, n).ok());
    auto a = inplace::util::iota_matrix<std::uint32_t>(m, n);
    const auto want = inplace::util::reference_transpose(
        std::span<const std::uint32_t>(a), m, n);
    inplace::transpose(a.data(), m, n);
    EXPECT_EQ(a, want) << "shape " << m << "x" << n;
  }
}

}  // namespace
