// Checked-mode contract tests.  This TU compiles with
// INPLACE_ENABLE_CHECKS=1 (see tests/CMakeLists.txt), so the
// INPLACE_REQUIRE/INPLACE_CHECK/INPLACE_ENSURE annotations in the headers
// are live here: the tests verify both that correct executions pass every
// contract and that corrupted index maps, undersized scratch and
// out-of-range accesses fail loudly with contract_violation.

#include "core/contracts.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/equations.hpp"
#include "core/executor.hpp"
#include "core/permute.hpp"
#include "core/rotate.hpp"
#include "cpu/skinny.hpp"
#include "core/tensor.hpp"
#include "util/aligned.hpp"
#include "core/transpose.hpp"
#include "util/matrix.hpp"

namespace {

using inplace::contract_violation;

static_assert(INPLACE_CHECKS_ENABLED == 1,
              "test_contracts must build with INPLACE_ENABLE_CHECKS");

// --- the macro layer itself --------------------------------------------------

TEST(Contracts, PassingContractIsSilent) {
  EXPECT_NO_THROW(INPLACE_REQUIRE(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(INPLACE_CHECK(true, "trivially true"));
  EXPECT_NO_THROW(INPLACE_ENSURE(2 > 1, "ordering"));
}

TEST(Contracts, FailingContractThrowsWithDiagnostics) {
  try {
    INPLACE_CHECK(1 == 2, "the message callers grep for");
    FAIL() << "contract did not fire";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the message callers grep for"), std::string::npos);
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos);
  }
}

TEST(Contracts, KindsAreDistinguished) {
  try {
    INPLACE_REQUIRE(false, "msg");
    FAIL();
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
  try {
    INPLACE_ENSURE(false, "msg");
    FAIL();
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"), std::string::npos);
  }
}

// --- shuffle primitives: bijectivity postconditions --------------------------

TEST(CheckedShuffles, CorrectShufflePassesAllContracts) {
  // A full checked transposition across engines: every shuffle's
  // visited-once postcondition holds on correct index math.
  for (const auto engine : {inplace::engine_kind::reference,
                            inplace::engine_kind::blocked,
                            inplace::engine_kind::skinny}) {
    inplace::options opts;
    opts.engine = engine;
    const std::size_t rows = engine == inplace::engine_kind::skinny ? 37 : 24;
    const std::size_t cols = engine == inplace::engine_kind::skinny ? 5 : 18;
    auto a = inplace::util::iota_matrix<std::uint32_t>(rows, cols);
    const auto want = inplace::util::reference_transpose(
        std::span<const std::uint32_t>(a), rows, cols);
    EXPECT_NO_THROW(inplace::transpose(a.data(), rows, cols,
                                       inplace::storage_order::row_major,
                                       opts));
    EXPECT_EQ(a, want);
  }
}

TEST(CheckedShuffles, ScatterCollisionIsCaught) {
  std::vector<int> row(8);
  std::iota(row.begin(), row.end(), 0);
  inplace::util::aligned_vector<int> tmp(8);
  // Maps both j=2 and j=5 to slot 1: not a bijection.
  EXPECT_THROW(inplace::detail::row_scatter_inplace(
                   row.data(), 8, tmp.data(),
                   [](std::uint64_t j) { return j == 5 ? 1ull : (j == 2 ? 1ull : j); }),
               contract_violation);
}

TEST(CheckedShuffles, GatherOutOfRangeIsCaught) {
  std::vector<int> row(8);
  inplace::util::aligned_vector<int> tmp(8);
  EXPECT_THROW(inplace::detail::row_gather_inplace(
                   row.data(), 8, tmp.data(),
                   [](std::uint64_t j) { return j + 1; }),  // j=7 -> 8
               contract_violation);
}

TEST(CheckedShuffles, ColumnShuffleDuplicateRowIsCaught) {
  std::vector<int> a(6 * 3);
  inplace::util::aligned_vector<int> tmp(6);
  EXPECT_THROW(inplace::detail::column_gather_inplace(
                   a.data(), 6, 3, 0, tmp.data(),
                   [](std::uint64_t i) { return i / 2; }),  // 0,0,1,1,2,2
               contract_violation);
}

TEST(CheckedShuffles, NonBijectivePermutationIsCaughtInCycleWalk) {
  // Library index math that is not a bijection trips a contract in the
  // discovery walk on every visited-scratch rung.
  const auto merge = [](std::uint64_t i) {
    // 0 -> 1 -> 2 -> 1 merges two cycles; the walk never returns to 0.
    return i == 0 ? 1ull : (i == 1 ? 2ull : (i == 2 ? 1ull : i));
  };
  const auto collapse = [](std::uint64_t i) { return i / 2; };  // 0,0,1,1,..
  const auto escape = [](std::uint64_t i) { return i + 1; };    // 5 -> 6
  for (const inplace::scratch_rung rung :
       {inplace::scratch_rung::full, inplace::scratch_rung::reduced,
        inplace::scratch_rung::cycle_follow}) {
    SCOPED_TRACE(inplace::rung_name(rung));
    inplace::detail::visited_map visited;
    visited.allocate(6, rung);
    const auto none = [](std::uint64_t) {};
    EXPECT_THROW(inplace::detail::discover_cycles(6, merge, visited, none),
                 contract_violation);
    EXPECT_THROW(inplace::detail::discover_cycles(6, collapse, visited, none),
                 contract_violation);
    EXPECT_THROW(inplace::detail::discover_cycles(6, escape, visited, none),
                 contract_violation);
  }
}

// --- corrupted index math through a full engine ------------------------------

TEST(CheckedEngines, SeededIndexBugFailsLoudly) {
  // A modulus typo in Eq. 24 (reducing mod m instead of mod n) collapses
  // whole blocks of a row onto the same slot: the shuffle's visited-once
  // postcondition must trip rather than silently corrupt the buffer.
  // (The subtler wrap off-by-one that permcheck --seed-bug=row plants
  // keeps each row a permutation and is only caught by the algebraic
  // mutual-inverse checks — see test_permcheck.cpp.)
  const std::uint64_t m = 6, n = 4;
  inplace::transpose_math<inplace::fast_divmod> mm(m, n);
  auto a = inplace::util::iota_matrix<std::uint32_t>(m, n);
  inplace::detail::workspace<std::uint32_t> ws;
  ws.reserve(m, n, 4);
  auto buggy_d_prime = [&](std::uint64_t i, std::uint64_t j) {
    std::uint64_t u = i + j / mm.b;
    if (u >= m) {
      u -= m;
    }
    return (u + j * m) % m;  // BUG: Eq. 24 reduces mod n, not mod m
  };
  bool caught = false;
  try {
    for (std::uint64_t i = 0; i < m; ++i) {
      inplace::detail::row_scatter_inplace(
          a.data() + i * n, n, ws.line.data(),
          [&](std::uint64_t j) { return buggy_d_prime(i, j); });
    }
  } catch (const contract_violation& e) {
    caught = true;
    EXPECT_NE(std::string(e.what()).find("Eq. 24"), std::string::npos);
  }
  EXPECT_TRUE(caught) << "seeded Eq. 24 bug survived the checked shuffle";
}

// --- planner / executor preconditions ---------------------------------------

TEST(CheckedExecutor, TransposerChecksPass) {
  inplace::transposer<float> tr(30, 20);
  std::vector<float> a(30 * 20);
  inplace::util::fill_iota(std::span<float>(a));
  EXPECT_NO_THROW(tr(a.data()));
  EXPECT_THROW(tr(nullptr), contract_violation);
}

TEST(CheckedExecutor, PlanPostconditionResolvesAutomatic) {
  // make_plan's INPLACE_ENSURE postcondition guarantees a concrete
  // engine even when the caller asks for automatic.
  inplace::options opts;
  opts.engine = inplace::engine_kind::automatic;
  const auto plan = inplace::make_plan_for_shape(
      300, 200, inplace::storage_order::row_major, opts, sizeof(float));
  EXPECT_NE(plan.engine, inplace::engine_kind::automatic);
}

TEST(CheckedExecutor, ForgedAutomaticPlanTripsContract) {
  // Regression: an unresolved engine_kind::automatic plan used to fall
  // through to the blocked engine silently.  In this checked TU the
  // lowering contract fires before the release-mode throw.
  inplace::transpose_plan forged;
  forged.m = 8;
  forged.n = 8;
  forged.engine = inplace::engine_kind::automatic;
  std::vector<float> buf(64, 1.0f);
  EXPECT_THROW(
      {
        inplace::transposer<float> tr(forged);
        tr(buf.data());
      },
      contract_violation);
}

TEST(CheckedExecutor, BatchedOverflowPrecondition) {
  // The byte/element overflow validation throws inplace::error (public
  // API surface) even in checked mode, before any contract runs.
  const std::size_t batch =
      std::numeric_limits<std::size_t>::max() / 15 + 1;
  int dummy = 0;
  EXPECT_THROW(inplace::transpose_batched(&dummy, batch, 3, 5),
               inplace::error);
}

TEST(CheckedRotations, ResidualWindowViolationIsCaught) {
  // Residuals must stay below min(width, m); width+1 is out of window.
  std::vector<int> a(8 * 4);
  inplace::detail::workspace<int> ws;
  ws.reserve(8, 4, 2);
  const std::uint64_t res[2] = {0, 3};  // 3 >= min(width=2, m=8)
  EXPECT_THROW(inplace::detail::fine_rotate_group(a.data(), 8, 4, 0, 2, res,
                                                  ws.head.data()),
               contract_violation);
}

// --- tensor view bounds checks ----------------------------------------------

TEST(CheckedTensor, AtValidatesEveryIndex) {
  std::vector<int> buf(2 * 3 * 4);
  std::iota(buf.begin(), buf.end(), 0);
  const inplace::tensor_view<int> t(buf.data(), 2, 3, 4);
  EXPECT_EQ(t.at(1, 2, 3), t(1, 2, 3));
  EXPECT_EQ(t.at(0, 0, 0), 0);
  EXPECT_THROW((void)t.at(2, 0, 0), contract_violation);
  EXPECT_THROW((void)t.at(0, 3, 0), contract_violation);
  EXPECT_THROW((void)t.at(0, 0, 4), contract_violation);
  EXPECT_THROW((void)t.extent(3), contract_violation);
  EXPECT_EQ(t.extent(1), 3u);
  EXPECT_EQ(t.size(), 24u);
}

TEST(CheckedEquations, StepperRowIndexPrecondition) {
  const inplace::transpose_math<inplace::fast_divmod> mm(6, 4);
  EXPECT_NO_THROW(inplace::d_prime_stepper(mm, 5));
  EXPECT_THROW(inplace::d_prime_stepper(mm, 6), contract_violation);
}

// --- memoized cycle structures ----------------------------------------------

// Regression: cycle_memo carried no identity, so a memo discovered under
// one (shape, pass) could be replayed against another — permute_rows_in_
// group would walk the stale leader list and silently scramble the
// buffer.  Memos now stamp memo_fingerprint(m, n, width, pass) at
// discovery and Checked mode REQUIREs the stamp on every replay; this
// test fails (by corrupting, not throwing) on the unstamped code.
TEST(CheckedMemo, StaleShapeReplayTripsTheFingerprint) {
  const std::uint64_t n = 4;
  const inplace::transpose_math<inplace::fast_divmod> mm_a(12, n);
  const inplace::transpose_math<inplace::fast_divmod> mm_b(8, n);
  inplace::detail::workspace<std::uint32_t> ws;
  ws.reserve(12, n, n);
  inplace::detail::cycle_memo memo;
  auto a = inplace::util::iota_matrix<std::uint32_t>(12, n);
  inplace::detail::skinny_permute_q(a.data(), mm_a, ws, &memo, nullptr,
                                    false);
  ASSERT_TRUE(memo.ready);
  EXPECT_NE(memo.key, 0u);
  // Replay against a different shape: the 8-row q permutation has a
  // different cycle structure than the memoized 12-row one.
  auto b = inplace::util::iota_matrix<std::uint32_t>(8, n);
  const auto before = b;
  EXPECT_THROW(inplace::detail::skinny_permute_q(b.data(), mm_b, ws, &memo,
                                                 nullptr, false),
               contract_violation);
  EXPECT_EQ(b, before) << "stale replay touched the buffer";
}

TEST(CheckedMemo, PassFamilyIsPartOfTheFingerprint) {
  // Same shape, different pass: q and q^-1 have mirrored cycle walks, so
  // a q-discovered memo must not replay for the inverse pass either.
  const std::uint64_t n = 4;
  const inplace::transpose_math<inplace::fast_divmod> mm(12, n);
  inplace::detail::workspace<std::uint32_t> ws;
  ws.reserve(12, n, n);
  inplace::detail::cycle_memo memo;
  auto a = inplace::util::iota_matrix<std::uint32_t>(12, n);
  inplace::detail::skinny_permute_q(a.data(), mm, ws, &memo, nullptr, false);
  ASSERT_TRUE(memo.ready);
  EXPECT_THROW(inplace::detail::skinny_permute_q_inv(a.data(), mm, ws, &memo,
                                                     nullptr, false),
               contract_violation);
}

}  // namespace
