// Failure-semantics suite (this TU compiles with INPLACE_FAILPOINTS):
// the fault-injection registry itself, stage-boundary rollback across
// every engine and direction, the OOM degradation ladder
// (full -> reduced -> cycle_follow), and the async lifecycle guarantees of
// transpose_context — every future settles, queued jobs fail
// deterministically on shutdown/cancel, worker faults never lose a job.
//
// The per-entry-point contract under test (DESIGN.md §11): a failing call
// leaves the caller's buffer fully transposed or bit-exactly restored,
// never scrambled.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/executor.hpp"
#include "core/failpoint.hpp"
#include "core/perm.hpp"
#include "core/telemetry.hpp"
#include "util/matrix.hpp"

namespace {

using namespace inplace;
namespace fp = inplace::failpoint;

/// Sets (or, for value == nullptr, removes) an environment variable for
/// the test's duration, restoring the previous state on exit.
class env_guard {
 public:
  env_guard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~env_guard() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
    fp::reload_env();
  }
  env_guard(const env_guard&) = delete;
  env_guard& operator=(const env_guard&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

template <typename T>
void expect_same(const std::vector<T>& got, const std::vector<T>& want,
                 const char* what) {
  EXPECT_EQ(util::first_mismatch(std::span<const T>(got),
                                 std::span<const T>(want)),
            -1)
      << what;
}

template <typename T>
void expect_transposed(const std::vector<T>& got, const std::vector<T>& src,
                       std::size_t rows, std::size_t cols, const char* what) {
  const std::vector<T> want =
      util::reference_transpose(std::span<const T>(src), rows, cols);
  expect_same(got, want, what);
}

// --- the failpoint registry --------------------------------------------------

// The registry tests scope their "nothing armed" checks to the names they
// arm themselves (and the global gate to its state at entry), so they hold
// in an env-armed fault pass that keeps other failpoints armed throughout.
// The entry state is read after a registry call, since the registry parses
// INPLACE_FAILPOINTS on first use.

TEST(Failpoint, ArmFireDisarmAndRetiredCounters) {
  EXPECT_FALSE(fp::disarm("t.unit"));  // not armed before this test
  const bool armed_before = fp::any_armed();
  fp::arm("t.unit");
  EXPECT_TRUE(fp::any_armed());
  EXPECT_THROW(fp::trigger("t.unit"), fp::injected_fault);
  EXPECT_EQ(fp::hits("t.unit"), 1u);
  EXPECT_EQ(fp::fires("t.unit"), 1u);
  // Unarmed names pass through silently, armed or not elsewhere.
  EXPECT_NO_THROW(fp::trigger("t.other"));
  EXPECT_TRUE(fp::disarm("t.unit"));
  EXPECT_FALSE(fp::disarm("t.unit"));
  EXPECT_EQ(fp::any_armed(), armed_before);
  EXPECT_NO_THROW(fp::trigger("t.unit"));
  // Counters survive disarm (the retired table) so scoped_trigger tests
  // can assert after the scope closes.
  EXPECT_EQ(fp::hits("t.unit"), 1u);
  EXPECT_EQ(fp::fires("t.unit"), 1u);
}

TEST(Failpoint, SkipAndCountBoundTheFiringWindow) {
  fp::scoped_trigger armed("t.window", fp::mode::fault, /*skip=*/2,
                           /*count=*/1);
  EXPECT_NO_THROW(fp::trigger("t.window"));  // hit 1 (skipped)
  EXPECT_NO_THROW(fp::trigger("t.window"));  // hit 2 (skipped)
  EXPECT_THROW(fp::trigger("t.window"), fp::injected_fault);  // hit 3 fires
  EXPECT_NO_THROW(fp::trigger("t.window"));  // count exhausted
  EXPECT_EQ(fp::hits("t.window"), 4u);
  EXPECT_EQ(fp::fires("t.window"), 1u);
}

TEST(Failpoint, OomModeThrowsBadAllocAndCountModeNeverThrows) {
  {
    fp::scoped_trigger armed("t.oom", fp::mode::oom);
    EXPECT_THROW(fp::trigger("t.oom"), std::bad_alloc);
  }
  {
    fp::scoped_trigger armed("t.count", fp::mode::count);
    EXPECT_NO_THROW(fp::trigger("t.count"));
    EXPECT_NO_THROW(fp::trigger("t.count"));
  }
  EXPECT_EQ(fp::hits("t.count"), 2u);
  EXPECT_EQ(fp::fires("t.count"), 2u);  // fired (counted), never threw
}

TEST(Failpoint, EnvArmsReloadsAndRejectsMalformedEntries) {
  EXPECT_FALSE(fp::disarm("t.env"));  // not armed before this test
  const bool armed_before = fp::any_armed();
  {
    const env_guard guard("INPLACE_FAILPOINTS",
                          "t.env:count:1,t.bad:explode,:fault");
    fp::reload_env();
    EXPECT_TRUE(fp::any_armed());
    EXPECT_NO_THROW(fp::trigger("t.env"));  // skipped (skip=1)
    EXPECT_NO_THROW(fp::trigger("t.env"));  // counted, mode count
    EXPECT_EQ(fp::hits("t.env"), 2u);
    EXPECT_EQ(fp::fires("t.env"), 1u);
    // The malformed entries were rejected loudly, not armed quietly.
    EXPECT_NO_THROW(fp::trigger("t.bad"));
    EXPECT_EQ(fp::hits("t.bad"), 0u);
  }
  // env_guard restored + reloaded: the env arm is gone.
  EXPECT_FALSE(fp::disarm("t.env"));
  EXPECT_EQ(fp::any_armed(), armed_before);
  EXPECT_NO_THROW(fp::trigger("t.env"));
  EXPECT_EQ(fp::hits("t.env"), 2u);  // retired counters persist
}

// --- stage-boundary rollback -------------------------------------------------

// Regression (noexcept audit): rollback_passes runs inside a catch block
// while the stage's exception is in flight; if the rollback itself could
// throw, the unwind would escalate to std::terminate.  The "never throws"
// contract is part of the signature of the one stage loop's rollback,
// proven here at compile time.
static_assert(noexcept(detail::rollback_passes(
    std::declval<detail::pass_stages<double>&>(), std::size_t{0},
    direction::c2r)));

/// Arms `name`, runs a directed transposition of src through a fresh
/// transposer, and asserts the injected failure left the buffer
/// bit-exactly restored; then reruns unarmed and asserts success.
template <typename T>
void check_rollback(std::size_t m, std::size_t n, direction dir,
                    const options& opts, const char* name) {
  SCOPED_TRACE(name);
  const auto src = util::iota_matrix<T>(m, n);
  auto buf = src;
  const transpose_plan plan =
      make_directed_plan(buf.data(), m, n, dir, opts, sizeof(T));
  {
    fp::scoped_trigger armed(name);
    transposer<T> tr(plan);
    EXPECT_THROW(tr(buf.data()), fp::injected_fault);
    EXPECT_GE(fp::fires(name), 1u) << "failpoint never traversed";
  }
  expect_same(buf, src, "buffer not restored after injected fault");
  // Unarmed rerun on a fresh transposer: the same plan must now succeed.
  transposer<T> tr(plan);
  tr(buf.data());
  if (dir == direction::c2r) {
    expect_transposed(buf, src, m, n, "post-rollback rerun");
  } else {
    // r2c is c2r's inverse: c2r(r2c(x)) == x.
    transposer<T> inv(
        make_directed_plan(buf.data(), m, n, direction::c2r, opts,
                           sizeof(T)));
    inv(buf.data());
    expect_same(buf, src, "r2c/c2r round trip after rollback");
  }
}

TEST(Rollback, ReferenceEngineRestoresAtEveryStageBoundary) {
  options opts;
  opts.engine = engine_kind::reference;
  // 40 x 25: gcd 5 > 1, so the prerotate stage genuinely runs.
  for (const char* name :
       {"reference.c2r.after_prerotate", "reference.c2r.after_row_shuffle",
        "reference.c2r.after_col_shuffle"}) {
    check_rollback<double>(40, 25, direction::c2r, opts, name);
  }
  for (const char* name :
       {"reference.r2c.after_col_shuffle", "reference.r2c.after_row_shuffle",
        "reference.r2c.after_prerotate"}) {
    check_rollback<double>(40, 25, direction::r2c, opts, name);
  }
}

TEST(Rollback, SkinnyEngineRestoresAtEveryStageBoundary) {
  options opts;
  opts.engine = engine_kind::skinny;
  for (const char* name :
       {"skinny.c2r.after_fused_row", "skinny.c2r.after_rotation",
        "skinny.c2r.after_permute"}) {
    check_rollback<float>(1000, 8, direction::c2r, opts, name);
  }
  for (const char* name :
       {"skinny.r2c.after_permute", "skinny.r2c.after_rotation",
        "skinny.r2c.after_fused_row"}) {
    check_rollback<float>(1000, 8, direction::r2c, opts, name);
  }
}

/// True when the kernel tier a default plan resolves to carries an
/// in-register tile pass for both 4- and 8-byte elements.
bool tier_has_tile_pass() {
  const transpose_plan plan = make_plan_for_shape(
      1024, 8, storage_order::row_major, {}, sizeof(float));
  const kernels::kernel_set& ks = kernels::set_for(plan.ktier);
  return kernels::tile_lanes<float>(ks) != 0 &&
         kernels::tile_lanes<double>(ks) != 0;
}

/// check_rollback at all six skinny boundaries on an in-register tile
/// plan: the skinny passes run on W-lane chunks with the tile pass fused
/// into the row pass.  1024 rows divide every tier's lane count and
/// n <= 8 fits every tier's register budget, so the tile gate holds.
template <typename T>
void check_tile_rollback(std::size_t m, std::size_t n) {
  SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) + ", " +
               std::to_string(sizeof(T)) + "-byte");
  options opts;
  opts.engine = engine_kind::skinny;
  std::vector<T> probe(m * n);
  for (const direction dir : {direction::c2r, direction::r2c}) {
    ASSERT_NE(make_directed_plan(probe.data(), m, n, dir, opts, sizeof(T))
                  .tile_block,
              0u)
        << "shape missed the in-register tile gate";
  }
  for (const char* name :
       {"skinny.c2r.after_fused_row", "skinny.c2r.after_rotation",
        "skinny.c2r.after_permute"}) {
    check_rollback<T>(m, n, direction::c2r, opts, name);
  }
  for (const char* name :
       {"skinny.r2c.after_permute", "skinny.r2c.after_rotation",
        "skinny.r2c.after_fused_row"}) {
    check_rollback<T>(m, n, direction::r2c, opts, name);
  }
}

TEST(Rollback, TilePlansRestoreAtEveryStageBoundary) {
  if (!tier_has_tile_pass()) {
    GTEST_SKIP() << "the resolved kernel tier has no in-register tile pass";
  }
  check_tile_rollback<float>(1024, 8);
  check_tile_rollback<float>(1024, 5);
  check_tile_rollback<double>(1024, 8);
  check_tile_rollback<double>(1024, 5);
}

TEST(Rollback, BlockedEngineRestoresAtEveryStageBoundary) {
  options opts;
  opts.engine = engine_kind::blocked;
  // 64 x 48: gcd 16 — prerotate runs, parallel pool engaged.
  for (const char* name :
       {"blocked.c2r.after_prerotate", "blocked.c2r.after_row_shuffle",
        "blocked.c2r.after_col_shuffle"}) {
    check_rollback<double>(64, 48, direction::c2r, opts, name);
  }
  for (const char* name :
       {"blocked.r2c.after_col_shuffle", "blocked.r2c.after_row_shuffle",
        "blocked.r2c.after_prerotate"}) {
    check_rollback<double>(64, 48, direction::r2c, opts, name);
  }
}

// Regression: the blocked column shuffle with no memo — the pass rollback
// and transposer::undo run it that way — appended its cycle leaders to
// the workspace's cycle list, which workspace::reserve never sizes, so
// the noexcept rollback allocated.  Each cycle now moves as discovery
// walks it: on freshly reserved workspaces the list stays empty, and both
// directions stay bit-exact against the reference engine's column pass.
TEST(Rollback, BlockedMemoLessColumnShuffleKeepsNoLeaderList) {
  using T = double;
  constexpr std::uint64_t width = 8;
  for (const auto& [m, n] : {std::pair<std::uint64_t, std::uint64_t>{64, 48},
                             {97, 61}, {40, 25}}) {
    SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
    const transpose_math<fast_divmod> mm(m, n);
    const auto src = util::iota_matrix<T>(m, n);
    detail::workspace<T> ref_ws;
    ref_ws.reserve(m, n, width);
    detail::workspace_pool<T> pool(m, n, width);
    const auto expect_no_leader_list = [&pool] {
      // Every workspace the shuffle's team could have used, read by the
      // thread that owns it.
      std::vector<std::size_t> bytes(pool.size(), 0);
#if defined(INPLACE_HAVE_OPENMP)
#pragma omp parallel num_threads(static_cast<int>(bytes.size()))
      bytes[static_cast<std::size_t>(omp_get_thread_num())] =
          pool.local().cycles.bytes();
#else
      bytes[0] = pool.local().cycles.bytes();
#endif
      for (const std::size_t b : bytes) {
        EXPECT_EQ(b, 0u) << "a memo-less column shuffle kept a leader list";
      }
    };

    auto got = src;
    auto want = src;
    detail::c2r_col_shuffle(got.data(), mm, width, pool);
    detail::reference_col_shuffle(want.data(), mm, ref_ws);
    expect_same(got, want, "memo-less c2r column shuffle");
    expect_no_leader_list();

    detail::r2c_col_shuffle(got.data(), mm, width, pool);
    detail::reference_col_shuffle_inv(want.data(), mm, ref_ws);
    expect_same(got, want, "memo-less r2c column shuffle");
    expect_same(got, src, "r2c column shuffle did not invert c2r's");
    expect_no_leader_list();
  }
}

/// An m x n shape over the skinny team floor, m odd, so its passes run
/// on the team (one slab per thread, q / q^-1 in segments).
std::size_t skinny_team_rows(std::size_t n, std::size_t elem,
                             std::size_t mult) {
  const std::size_t rows =
      detail::skinny_team_floor_bytes() / (n * elem) / mult + 1;
  return (rows | 1) * mult;
}

/// Arms each skinny boundary in turn on a transposer whose scratch is
/// already built: the failing execution restores the buffer bit-exactly
/// and, forward run and rollback together, reaches neither the scratch
/// ladder nor the aligned allocator.  After one warm run (which fills the
/// arena's cycle memo) the failing execution leaves the arena's retained
/// bytes unchanged, so no scratch or leader list grows during rollback.
/// `names` lists the engine's C2R boundaries, then its R2C ones.
template <typename T>
void check_boundary_rollback(std::size_t m, std::size_t n,
                             const options& opts,
                             const char* const (&names)[2][3]) {
  for (const direction dir : {direction::c2r, direction::r2c}) {
    for (const char* name : names[dir == direction::c2r ? 0 : 1]) {
      SCOPED_TRACE(name);
      const auto src = util::iota_matrix<T>(m, n);
      auto buf = src;
      transposer<T> tr(
          make_directed_plan(buf.data(), m, n, dir, opts, sizeof(T)));
      auto warm = src;
      tr(warm.data());
      const std::size_t cached = tr.cached_bytes();
      fp::scoped_trigger scratch("exec.alloc.full", fp::mode::count);
      fp::scoped_trigger aligned("alloc.aligned", fp::mode::count);
      {
        fp::scoped_trigger armed(name);
        EXPECT_THROW(tr(buf.data()), fp::injected_fault);
      }
      expect_same(buf, src, "buffer not restored after injected fault");
      EXPECT_EQ(fp::hits("exec.alloc.full"), 0u);
      EXPECT_EQ(fp::hits("alloc.aligned"), 0u);
      EXPECT_EQ(tr.cached_bytes(), cached)
          << "rollback grew the arena's scratch or cycle lists";
    }
  }
}

template <typename T>
void check_team_rollback(std::size_t m, std::size_t n, const options& opts) {
  const char* const names[2][3] = {
      {"skinny.c2r.after_fused_row", "skinny.c2r.after_rotation",
       "skinny.c2r.after_permute"},
      {"skinny.r2c.after_permute", "skinny.r2c.after_rotation",
       "skinny.r2c.after_fused_row"}};
  check_boundary_rollback<T>(m, n, opts, names);
}

TEST(Rollback, SkinnyTeamRestoresAtEveryBoundaryAllocatingNothing) {
  options opts;
  opts.engine = engine_kind::skinny;
  opts.tile = options::tile_mode::off;
  check_team_rollback<float>(skinny_team_rows(7, sizeof(float), 1), 7, opts);
  check_team_rollback<double>(skinny_team_rows(24, sizeof(double), 1), 24,
                              opts);
}

TEST(SkinnyChunked, TeamRestoresAtEveryBoundaryAllocatingNothing) {
  // Narrow rows from n B rows up take the chunked passes (cpu/skinny.hpp):
  // whole blocks of n B rows (s = 0) and a tail of s < n B structures
  // that the spread moves.
  options opts;
  opts.engine = engine_kind::skinny;
  opts.tile = options::tile_mode::off;
  const std::size_t f32 = 7 * 147;  // n B for f32 x 7
  const std::size_t m = (skinny_team_rows(7, sizeof(float), 1) + f32 - 1) /
                        f32 * f32;
  ASSERT_TRUE(detail::skinny_chunk_layout<float>(m, 7).chunked());
  check_team_rollback<float>(m, 7, opts);
  check_team_rollback<float>(m + 500, 7, opts);
  const std::size_t f64 = 3 * 171;  // n B for f64 x 3
  const std::size_t m3 =
      (skinny_team_rows(3, sizeof(double), 1) + f64 - 1) / f64 * f64 + 2;
  ASSERT_TRUE(detail::skinny_chunk_layout<double>(m3, 3).chunked());
  check_team_rollback<double>(m3, 3, opts);
}

TEST(Rollback, PageScaleBlockedRestoresAtEveryBoundaryAllocatingNothing) {
  // Page-scale column groups (the width large blocked plans derive):
  // several groups per matrix and a ragged last one, on gcd-rich shapes
  // so the pre-rotation (and its boundary) runs.  The fine pass's blend
  // network keeps its lane masks on the stack and its wrapped tail in the
  // workspace's head buffer, so neither the forward run nor its rollback
  // allocates.
  options opts;
  opts.engine = engine_kind::blocked;
  opts.block_bytes = 2048;
  const char* const names[2][3] = {
      {"blocked.c2r.after_prerotate", "blocked.c2r.after_row_shuffle",
       "blocked.c2r.after_col_shuffle"},
      {"blocked.r2c.after_col_shuffle", "blocked.r2c.after_row_shuffle",
       "blocked.r2c.after_prerotate"}};
  check_boundary_rollback<float>(780, 660, opts, names);
  check_boundary_rollback<double>(780, 660, opts, names);
  check_boundary_rollback<double>(1040, 616, opts, names);
}

TEST(Rollback, TileTeamRestoresAtEveryBoundaryAllocatingNothing) {
  if (!tier_has_tile_pass()) {
    GTEST_SKIP() << "the resolved kernel tier has no in-register tile pass";
  }
  options opts;
  opts.engine = engine_kind::skinny;
  std::vector<float> probe(1);
  const std::size_t w = make_directed_plan(probe.data(), 1024, 8,
                                           direction::c2r, opts, sizeof(float))
                            .tile_block;
  const std::size_t m = skinny_team_rows(8, sizeof(float), w);
  ASSERT_NE(make_directed_plan(probe.data(), m, 8, direction::c2r, opts,
                               sizeof(float))
                .tile_block,
            0u);
  check_team_rollback<float>(m, 8, opts);
}

// --- the OOM degradation ladder ----------------------------------------------

TEST(OomLadder, FullRungFailureDegradesToReducedAndStaysExact) {
  const struct {
    std::size_t m, n;
    engine_kind engine;
    const char* what;
  } cases[] = {
      {64, 48, engine_kind::blocked, "blocked"},
      {1000, 8, engine_kind::skinny, "skinny"},
      {40, 25, engine_kind::reference, "reference"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    options opts;
    opts.engine = c.engine;
    const auto src = util::iota_matrix<double>(c.m, c.n);
    auto buf = src;
    const transpose_plan plan = make_directed_plan(
        buf.data(), c.m, c.n, direction::c2r, opts, sizeof(double));
    fp::scoped_trigger no_full("exec.alloc.full", fp::mode::oom);
    transposer<double> tr(plan);
    EXPECT_EQ(tr.plan().rung, scratch_rung::reduced);
    EXPECT_EQ(tr.plan().threads, 1);
    tr(buf.data());
    expect_transposed(buf, src, c.m, c.n, "reduced rung");
  }
}

TEST(OomLadder, SkinnyTeamShapeDegradesToTheSerialReducedRung) {
  // Over the team floor the full rung runs on the team; the reduced rung
  // (threads = 1) runs the same passes on one slab and still matches.
  options opts;
  opts.engine = engine_kind::skinny;
  opts.tile = options::tile_mode::off;
  const std::size_t m = skinny_team_rows(7, sizeof(float), 1);
  const std::size_t n = 7;
  for (const direction dir : {direction::c2r, direction::r2c}) {
    SCOPED_TRACE(dir == direction::c2r ? "c2r" : "r2c");
    const auto src = util::iota_matrix<float>(m, n);
    auto full = src;
    transposer<float>(
        make_directed_plan(full.data(), m, n, dir, opts, sizeof(float)))(
        full.data());
    auto buf = src;
    fp::scoped_trigger no_full("exec.alloc.full", fp::mode::oom);
    transposer<float> tr(
        make_directed_plan(buf.data(), m, n, dir, opts, sizeof(float)));
    EXPECT_EQ(tr.plan().rung, scratch_rung::reduced);
    EXPECT_EQ(tr.plan().threads, 1);
    tr(buf.data());
    expect_same(buf, full, "reduced rung differs from the full team");
  }
}

TEST(OomLadder, TileScratchFailureDemotesToScratchLinePath) {
  if (!tier_has_tile_pass()) {
    GTEST_SKIP() << "the resolved kernel tier has no in-register tile pass";
  }
  options opts;
  opts.engine = engine_kind::skinny;
  for (const direction dir : {direction::c2r, direction::r2c}) {
    SCOPED_TRACE(dir == direction::c2r ? "c2r" : "r2c");
    const std::size_t m = 1024;
    const std::size_t n = 8;
    const auto src = util::iota_matrix<float>(m, n);
    auto buf = src;
    const transpose_plan plan =
        make_directed_plan(buf.data(), m, n, dir, opts, sizeof(float));
    ASSERT_NE(plan.tile_block, 0u);
    // One traversal fails: the tile rung's chunk workspace.  The element
    // workspace on the same full rung then succeeds.
    fp::scoped_trigger no_tile("exec.alloc.full", fp::mode::oom, /*skip=*/0,
                               /*count=*/1);
    transposer<float> tr(plan);
    EXPECT_EQ(tr.plan().tile_block, 0u);
    EXPECT_EQ(tr.plan().rung, scratch_rung::full);
    tr(buf.data());
    if (dir == direction::c2r) {
      expect_transposed(buf, src, m, n, "tile demoted to the scratch line");
    } else {
      transposer<float> inv(make_directed_plan(buf.data(), m, n,
                                               direction::c2r, opts,
                                               sizeof(float)));
      inv(buf.data());
      expect_same(buf, src, "demoted r2c/c2r round trip");
    }
  }
}

TEST(OomLadder, BothAllocRungsFailingFallBackToCycleFollow) {
  for (const direction dir : {direction::c2r, direction::r2c}) {
    SCOPED_TRACE(dir == direction::c2r ? "c2r" : "r2c");
    const std::size_t m = 64;
    const std::size_t n = 48;
    const auto src = util::iota_matrix<double>(m, n);
    auto buf = src;
    const transpose_plan plan =
        make_directed_plan(buf.data(), m, n, dir, {}, sizeof(double));
    fp::scoped_trigger no_full("exec.alloc.full", fp::mode::oom);
    fp::scoped_trigger no_reduced("exec.alloc.reduced", fp::mode::oom);
    transposer<double> tr(plan);
    EXPECT_EQ(tr.plan().rung, scratch_rung::cycle_follow);
    tr(buf.data());
    if (dir == direction::c2r) {
      expect_transposed(buf, src, m, n, "cycle_follow rung");
    } else {
      transposer<double> inv(make_directed_plan(buf.data(), m, n,
                                                direction::c2r, {},
                                                sizeof(double)));
      inv(buf.data());
      expect_same(buf, src, "cycle_follow r2c round trip");
    }
  }
}

TEST(OomLadder, RealAllocatorFailuresWalkTheLadderMidReserve) {
  const std::size_t m = 64;
  const std::size_t n = 48;
  const auto src = util::iota_matrix<double>(m, n);

  {
    // Every scratch allocation fails (the aligned-allocator shim): both
    // allocating rungs collapse and the ladder lands on cycle_follow.
    auto buf = src;
    fp::scoped_trigger no_alloc("alloc.aligned", fp::mode::oom);
    transposer<double> tr(m, n);
    EXPECT_EQ(tr.plan().rung, scratch_rung::cycle_follow);
    tr(buf.data());
    // At least one real allocation failed through the shim (exactly one
    // per allocating rung the ladder still visited — the sanitizer pass
    // env-forces the full rung off before it allocates).
    EXPECT_GE(fp::fires("alloc.aligned"), 1u);
    expect_transposed(buf, src, m, n, "allocator-driven cycle_follow");
  }
  {
    // Mid-reserve failure: the first allocation succeeds, a later one
    // throws, and acquire_scratch must release the partial rung cleanly
    // and land on a lower one — never leak or scramble.
    auto buf = src;
    fp::scoped_trigger partial("alloc.aligned", fp::mode::oom, /*skip=*/1);
    transposer<double> tr(m, n);
    EXPECT_NE(tr.plan().rung, scratch_rung::full);
    tr(buf.data());
    expect_transposed(buf, src, m, n, "mid-reserve degradation");
  }
}

TEST(OomLadder, AllRungsForbiddenThrowsWithBufferUntouched) {
  transpose_context ctx;
  const std::size_t m = 48;
  const std::size_t n = 36;
  const auto src = util::iota_matrix<double>(m, n);
  auto buf = src;
  fp::scoped_trigger no_full("exec.alloc.full", fp::mode::oom);
  fp::scoped_trigger no_reduced("exec.alloc.reduced", fp::mode::oom);
  fp::scoped_trigger no_floor("exec.rung.cycle_follow");
  EXPECT_THROW(ctx.transpose(buf.data(), m, n), fp::injected_fault);
  expect_same(buf, src, "buffer touched before any pass ran");
  EXPECT_EQ(ctx.stats().executions, 0u);
  EXPECT_EQ(ctx.cached_bytes(), 0u);
}

TEST(OomLadder, EnvDrivenArmingDegradesProcessWide) {
  const env_guard guard("INPLACE_FAILPOINTS", "exec.alloc.full:oom");
  fp::reload_env();
  const std::size_t m = 40;
  const std::size_t n = 30;
  const auto src = util::iota_matrix<float>(m, n);
  auto buf = src;
  transposer<float> tr(m, n);
  EXPECT_EQ(tr.plan().rung, scratch_rung::reduced);
  tr(buf.data());
  expect_transposed(buf, src, m, n, "env-armed reduced rung");
}

TEST(OomLadder, ContextCountsDegradedArenasAndTelemetryRecordsTheRung) {
  telemetry::collector col;
  telemetry::scoped_sink sink(&col);
  transpose_context ctx;
  const std::size_t m = 64;
  const std::size_t n = 48;
  const auto src = util::iota_matrix<double>(m, n);
  auto buf = src;
  {
    fp::scoped_trigger no_full("exec.alloc.full", fp::mode::oom);
    ctx.transpose(buf.data(), m, n);
  }
  expect_transposed(buf, src, m, n, "degraded context execution");
  EXPECT_EQ(ctx.stats().arenas_degraded, 1u);

  // A second, unpressured execution of the same shape plans a fresh
  // arena?  No — the degraded arena was recycled; its plan still carries
  // the reduced rung, and the dedup table keeps the two rungs distinct.
  bool saw_reduced = false;
  for (const auto& pc : col.plan_counts()) {
    if (std::string(pc.rec.rung) == "reduced") {
      saw_reduced = true;
    }
  }
  EXPECT_TRUE(saw_reduced) << "telemetry lost the degradation rung";
}

// --- async lifecycle ---------------------------------------------------------

/// Settles every future and checks the per-job contract: completed jobs
/// hold the transpose, cancelled jobs hold the untouched input and threw
/// context_shutdown.  Returns how many were cancelled.
template <typename T>
std::size_t settle_all(std::vector<std::future<void>>& futs,
                       std::vector<std::vector<T>>& bufs,
                       const std::vector<T>& src, std::size_t rows,
                       std::size_t cols) {
  std::size_t cancelled = 0;
  for (std::size_t k = 0; k < futs.size(); ++k) {
    EXPECT_TRUE(futs[k].valid());
    try {
      futs[k].get();
      expect_transposed(bufs[k], src, rows, cols, "completed async job");
    } catch (const context_shutdown&) {
      ++cancelled;
      expect_same(bufs[k], src, "cancelled job must not touch its buffer");
    }
  }
  return cancelled;
}

TEST(Async, DestructionSettlesEveryOutstandingFuture) {
  const std::size_t m = 96;
  const std::size_t n = 72;
  const auto src = util::iota_matrix<double>(m, n);
  constexpr std::size_t jobs = 24;
  std::vector<std::vector<double>> bufs(jobs, src);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  std::size_t cancelled = 0;
  {
    context_options copts;
    copts.workers = 1;  // one worker: most jobs are still queued at exit
    transpose_context ctx(copts);
    for (auto& buf : bufs) {
      futs.push_back(ctx.submit(buf.data(), m, n));
    }
    // Context destroyed with jobs in flight and pending (the regression
    // this PR fixes: these futures used to hang unsatisfied).
  }
  cancelled = settle_all(futs, bufs, src, m, n);
  // With a single worker and immediate destruction, at least one job ran
  // (drained or in flight) or was cancelled; all 24 are accounted for.
  EXPECT_LE(cancelled, jobs);
}

TEST(Async, ShutdownDefaultFailsPendingAndCountsThem) {
  const std::size_t m = 80;
  const std::size_t n = 60;
  const auto src = util::iota_matrix<double>(m, n);
  constexpr std::size_t jobs = 16;
  std::vector<std::vector<double>> bufs(jobs, src);
  context_options copts;
  copts.workers = 1;
  transpose_context ctx(copts);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  for (auto& buf : bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  ctx.shutdown();  // drain_pending = false
  const std::size_t cancelled = settle_all(futs, bufs, src, m, n);
  EXPECT_EQ(ctx.stats().jobs_cancelled, cancelled);
  EXPECT_EQ(ctx.stats().async_jobs, jobs);
  // Idempotent: a second shutdown is a no-op.
  ctx.shutdown();
  EXPECT_EQ(ctx.stats().jobs_cancelled, cancelled);
}

TEST(Async, ShutdownDrainRunsEverythingAlreadyQueued) {
  const std::size_t m = 64;
  const std::size_t n = 40;
  const auto src = util::iota_matrix<float>(m, n);
  constexpr std::size_t jobs = 12;
  std::vector<std::vector<float>> bufs(jobs, src);
  context_options copts;
  copts.workers = 2;
  transpose_context ctx(copts);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  for (auto& buf : bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  ctx.shutdown(/*drain_pending=*/true);
  for (auto& fut : futs) {
    EXPECT_NO_THROW(fut.get());
  }
  for (const auto& buf : bufs) {
    expect_transposed(buf, src, m, n, "drained job");
  }
  EXPECT_EQ(ctx.stats().jobs_cancelled, 0u);
}

TEST(Async, SubmitAfterShutdownThrowsContextShutdown) {
  transpose_context ctx;
  auto buf = util::iota_matrix<double>(8, 6);
  ctx.shutdown();
  EXPECT_THROW(
      {
        auto fut = ctx.submit(buf.data(), std::size_t{8}, std::size_t{6});
        (void)fut;
      },
      context_shutdown);
  // Synchronous entry points keep working after shutdown.
  EXPECT_NO_THROW(ctx.transpose(buf.data(), 8, 6));
}

TEST(Async, CancelPendingFailsQueuedJobsButKeepsTheContextAlive) {
  const std::size_t m = 72;
  const std::size_t n = 54;
  const auto src = util::iota_matrix<double>(m, n);
  constexpr std::size_t jobs = 16;
  std::vector<std::vector<double>> bufs(jobs, src);
  context_options copts;
  copts.workers = 1;
  transpose_context ctx(copts);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  for (auto& buf : bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  const std::size_t reported = ctx.cancel_pending();
  const std::size_t cancelled = settle_all(futs, bufs, src, m, n);
  EXPECT_EQ(reported, cancelled);
  EXPECT_EQ(ctx.stats().jobs_cancelled, cancelled);
  // The pool survives a cancel: a fresh submit completes normally.
  auto buf = src;
  auto fut = ctx.submit(buf.data(), m, n);
  EXPECT_NO_THROW(fut.get());
  expect_transposed(buf, src, m, n, "submit after cancel_pending");
}

TEST(Async, BackpressureBoundsTheQueueWithoutLosingJobs) {
  const std::size_t m = 48;
  const std::size_t n = 32;
  const auto src = util::iota_matrix<float>(m, n);
  constexpr std::size_t jobs = 32;
  std::vector<std::vector<float>> bufs(jobs, src);
  context_options copts;
  copts.workers = 1;
  copts.max_queue = 1;  // every second submit must block and then resume
  transpose_context ctx(copts);
  std::vector<std::future<void>> futs;
  futs.reserve(jobs);
  for (auto& buf : bufs) {
    futs.push_back(ctx.submit(buf.data(), m, n));
  }
  for (auto& fut : futs) {
    EXPECT_NO_THROW(fut.get());
  }
  for (const auto& buf : bufs) {
    expect_transposed(buf, src, m, n, "backpressured job");
  }
}

TEST(Async, WorkerFaultStillSettlesTheFuture) {
  const std::size_t m = 40;
  const std::size_t n = 24;
  const auto src = util::iota_matrix<double>(m, n);
  transpose_context ctx;
  auto buf = src;
  {
    fp::scoped_trigger armed("ctx.worker.job");
    auto fut = ctx.submit(buf.data(), m, n);
    EXPECT_THROW(fut.get(), fp::injected_fault);
  }
  expect_same(buf, src, "faulted worker must not touch the buffer");
  // Disarmed, the next submit on the same pool completes.
  auto fut = ctx.submit(buf.data(), m, n);
  EXPECT_NO_THROW(fut.get());
  expect_transposed(buf, src, m, n, "post-fault submit");
}

TEST(Async, EnqueueFaultLeavesNoDanglingFuture) {
  const std::size_t m = 32;
  const std::size_t n = 20;
  const auto src = util::iota_matrix<double>(m, n);
  transpose_context ctx;
  auto buf = src;
  {
    fp::scoped_trigger armed("ctx.queue.push");
    EXPECT_THROW(
        {
          auto fut = ctx.submit(buf.data(), m, n);
          (void)fut;
        },
        fp::injected_fault);
  }
  expect_same(buf, src, "failed enqueue must not touch the buffer");
  EXPECT_EQ(ctx.stats().async_jobs, 0u);  // never counted as enqueued
  auto fut = ctx.submit(buf.data(), m, n);
  EXPECT_NO_THROW(fut.get());
}

TEST(Async, PartialWorkerSpawnFailureCleansUpAndRecovers) {
  const std::size_t m = 36;
  const std::size_t n = 28;
  const auto src = util::iota_matrix<double>(m, n);
  context_options copts;
  copts.workers = 4;
  transpose_context ctx(copts);
  auto buf = src;
  {
    // Thread 1 spawns; thread 2's spawn throws: the constructor must join
    // the survivor and propagate, leaving no half-alive pool behind.
    fp::scoped_trigger armed("ctx.spawn", fp::mode::fault, /*skip=*/1);
    EXPECT_THROW(
        {
          auto fut = ctx.submit(buf.data(), m, n);
          (void)fut;
        },
        fp::injected_fault);
  }
  expect_same(buf, src, "spawn failure must not touch the buffer");
  // Disarmed, the lazy pool construction retries and succeeds.
  auto fut = ctx.submit(buf.data(), m, n);
  EXPECT_NO_THROW(fut.get());
  expect_transposed(buf, src, m, n, "submit after recovered spawn");
}

// --- plan-cache / arena consistency under failure ----------------------------

TEST(ArenaConsistency, ThrowingExecutionDropsTheArenaNotTheAccounting) {
  transpose_context ctx;
  const std::size_t m = 64;
  const std::size_t n = 48;
  const auto src = util::iota_matrix<double>(m, n);
  auto buf = src;
  {
    fp::scoped_trigger armed("blocked.c2r.after_row_shuffle");
    EXPECT_THROW(ctx.c2r(buf.data(), m, n), fp::injected_fault);
  }
  expect_same(buf, src, "context rollback");
  auto s = ctx.stats();
  EXPECT_EQ(s.executions, 1u);
  EXPECT_EQ(s.arenas_created, 1u);
  EXPECT_EQ(s.arenas_dropped, 1u);  // never recycled after a throw
  EXPECT_EQ(ctx.cached_bytes(), 0u);

  // The plan entry survives; the next call re-creates an arena and
  // recycles it normally.
  ctx.c2r(buf.data(), m, n);
  expect_transposed(buf, src, m, n, "post-failure context execution");
  s = ctx.stats();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.arenas_created, 2u);
  EXPECT_EQ(s.arenas_created + s.arenas_reused, s.executions);
  EXPECT_GT(ctx.cached_bytes(), 0u);
}

TEST(ArenaConsistency, FailingExecutionsRacingClearStayConserved) {
  // Half the threads run a shape whose executions always fail (armed
  // stage failpoint), half a healthy shape, while the main thread churns
  // clear() — the counters must conserve and retained_bytes must not
  // underflow (the recycle/evict race this PR fixes).
  transpose_context ctx;
  fp::scoped_trigger armed("reference.c2r.after_row_shuffle");
  constexpr int workers = 6;
  constexpr int iters = 25;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      options ref_opts;
      ref_opts.engine = engine_kind::reference;
      const auto healthy_src = util::iota_matrix<double>(48, 36);
      const auto failing_src = util::iota_matrix<double>(40, 25);
      for (int it = 0; it < iters; ++it) {
        if (t % 2 == 0) {
          auto buf = failing_src;
          try {
            ctx.c2r(buf.data(), 40, 25, ref_opts);
            bad.fetch_add(1);  // must have thrown
          } catch (const fp::injected_fault&) {
            if (util::first_mismatch(std::span<const double>(buf),
                                     std::span<const double>(failing_src)) !=
                -1) {
              bad.fetch_add(1);  // not restored
            }
          }
        } else {
          auto buf = healthy_src;
          ctx.transpose(buf.data(), 48, 36);
          const auto want = util::reference_transpose(
              std::span<const double>(healthy_src), 48, 36);
          if (util::first_mismatch(std::span<const double>(buf),
                                   std::span<const double>(want)) != -1) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (int k = 0; k < 50; ++k) {
    ctx.clear();
    std::this_thread::yield();
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
  const auto s = ctx.stats();
  EXPECT_EQ(s.executions,
            static_cast<std::uint64_t>(workers * iters));
  EXPECT_EQ(s.arenas_created + s.arenas_reused, s.executions);
  // No retained_bytes underflow: after a final clear the gauge reads 0,
  // not a wrapped ~SIZE_MAX.
  ctx.clear();
  EXPECT_EQ(ctx.cached_bytes(), 0u);
}

// --- tensor engine (permute_nd) failure semantics ----------------------------

/// Out-of-place rank-3 reference for the tensor rollback checks.
std::vector<double> reference_permute3(const std::vector<double>& in,
                                       std::size_t d0, std::size_t d1,
                                       std::size_t d2, int p0, int p1,
                                       int p2) {
  const std::size_t dims[3] = {d0, d1, d2};
  const int perm[3] = {p0, p1, p2};
  const std::size_t od[3] = {dims[perm[0]], dims[perm[1]], dims[perm[2]]};
  std::vector<double> out(in.size());
  for (std::size_t i0 = 0; i0 < d0; ++i0) {
    for (std::size_t i1 = 0; i1 < d1; ++i1) {
      for (std::size_t i2 = 0; i2 < d2; ++i2) {
        const std::size_t idx[3] = {i0, i1, i2};
        out[(idx[perm[0]] * od[1] + idx[perm[1]]) * od[2] + idx[perm[2]]] =
            in[(i0 * d1 + i1) * d2 + i2];
      }
    }
  }
  return out;
}

// A plan-search fault fires before anything is planned or moved: the
// buffer is untouched, nothing executed, and nothing is retained.
TEST(TensorFailure, PlanSearchFaultLeavesBufferUntouched) {
  transpose_context ctx;
  const std::size_t dims[3] = {8, 6, 4};
  const int rev[3] = {2, 1, 0};
  std::vector<double> src(8 * 6 * 4);
  for (std::size_t l = 0; l < src.size(); ++l) {
    src[l] = static_cast<double>(l);
  }
  auto buf = src;
  {
    fp::scoped_trigger armed("tensor.plan.search");
    EXPECT_THROW(ctx.permute_nd(buf.data(), dims, rev),
                 fp::injected_fault);
    EXPECT_GE(fp::fires("tensor.plan.search"), 1u);
  }
  expect_same(buf, src, "buffer touched by a plan-time fault");
  EXPECT_EQ(ctx.stats().executions, 0u);
  EXPECT_EQ(ctx.cached_bytes(), 0u);
  // Unarmed retry on the same context succeeds.
  ctx.permute_nd(buf.data(), dims, rev);
  expect_same(buf, reference_permute3(src, 8, 6, 4, 2, 1, 0),
              "post-fault retry");
}

// The pass-boundary failpoint fires before pass k moves anything; the
// engine must invert the k completed passes and hand back the caller's
// buffer bit-exactly — at every boundary of a multi-pass plan.
TEST(TensorFailure, PassBoundaryFaultRollsBackCompletedPasses) {
  const std::size_t dims[3] = {6, 5, 4};
  const int rev[3] = {2, 1, 0};
  const detail::tensor_plan plan = detail::make_tensor_plan(
      std::span<const std::size_t>(dims, 3), std::span<const int>(rev, 3),
      sizeof(double));
  ASSERT_GE(plan.passes.size(), 2u) << "need a multi-pass decomposition";
  std::vector<double> src(6 * 5 * 4);
  for (std::size_t l = 0; l < src.size(); ++l) {
    src[l] = static_cast<double>(l) * 1.5 + 3.0;
  }
  for (std::size_t fail_at = 0; fail_at < plan.passes.size(); ++fail_at) {
    SCOPED_TRACE(fail_at);
    auto buf = src;
    fp::scoped_trigger armed("tensor.pass.begin", fp::mode::fault,
                             /*skip=*/fail_at, /*count=*/1);
    nd_transposer<double> tr(plan);
    EXPECT_THROW(tr(buf.data()), fp::injected_fault);
    expect_same(buf, src, "buffer not restored after pass-boundary fault");
  }
  // Unarmed run completes and matches the reference.
  auto buf = src;
  nd_transposer<double> tr(plan);
  tr(buf.data());
  expect_same(buf, reference_permute3(src, 6, 5, 4, 2, 1, 0),
              "unarmed tensor run");
}

// Context route for the same fault: the buffer restores, the checked-out
// arena is dropped (not recycled mid-update), and the accounting stays
// conserved — the ArenaConsistency contract extended to the tensor mode.
TEST(TensorFailure, MidRunFaultDropsTheTensorArenaNotTheAccounting) {
  transpose_context ctx;
  const std::size_t dims[3] = {6, 5, 4};
  const int rev[3] = {2, 1, 0};
  std::vector<double> src(6 * 5 * 4);
  for (std::size_t l = 0; l < src.size(); ++l) {
    src[l] = static_cast<double>(l);
  }
  auto buf = src;
  ctx.permute_nd(buf.data(), dims, rev);  // healthy cold run
  const auto want = buf;
  EXPECT_EQ(ctx.stats().arenas_created, 1u);

  buf = src;
  {
    fp::scoped_trigger armed("tensor.pass.begin", fp::mode::fault,
                             /*skip=*/1, /*count=*/1);
    EXPECT_THROW(ctx.permute_nd(buf.data(), dims, rev),
                 fp::injected_fault);
  }
  expect_same(buf, src, "context tensor run not rolled back");
  const auto s = ctx.stats();
  EXPECT_GE(s.arenas_dropped, 1u);
  EXPECT_EQ(s.arenas_created + s.arenas_reused, s.executions);

  // The dropped arena is rebuilt on the next call and the result is right.
  ctx.permute_nd(buf.data(), dims, rev);
  expect_same(buf, want, "post-drop tensor rerun");
  EXPECT_EQ(ctx.stats().arenas_created, 2u);
}

/// A hand-built two-pass plan over a 6 x 5 x 4 tensor, independent of
/// which decomposition the search would pick.  batched_first: a batched
/// 2-D pass (6 slabs of 5 x 4), then a chunk pass — perm {2, 0, 1}.
/// Otherwise: a chunk pass, then a batched 2-D pass (5 slabs of 6 x 4) —
/// perm {1, 2, 0}.
detail::tensor_plan two_pass_plan(bool batched_first) {
  detail::tensor_plan plan;
  plan.norm.rank = 3;
  plan.norm.dims = {6, 5, 4};
  plan.norm.total = 6 * 5 * 4;
  if (batched_first) {
    plan.norm.perm = {2, 0, 1};
    plan.passes.push_back(detail::nd_pass{6, 5, 4, 1});
    plan.passes.push_back(detail::nd_pass{1, 6, 4, 5});
  } else {
    plan.norm.perm = {1, 2, 0};
    plan.passes.push_back(detail::nd_pass{1, 6, 5, 4});
    plan.passes.push_back(detail::nd_pass{5, 6, 4, 1});
  }
  return plan;
}

std::vector<double> tensor_src() {
  std::vector<double> src(6 * 5 * 4);
  for (std::size_t l = 0; l < src.size(); ++l) {
    src[l] = static_cast<double>(l) * 0.5 - 7.0;
  }
  return src;
}

// Regression: rolling a batched 2-D pass back once built a fresh
// transposer inside the noexcept rollback, whose scratch acquisition
// could fail there and leave the buffer unrestored.  Rollback now undoes
// each slab on the pass's own arena, so even a hard fault on every
// scratch acquisition cannot stop it.
TEST(TensorFailure, BatchedPassRollsBackWithoutAcquiringScratch) {
  const detail::tensor_plan plan = two_pass_plan(/*batched_first=*/true);
  const auto src = tensor_src();
  auto buf = src;
  nd_transposer<double> tr(plan);
  {
    fp::scoped_trigger no_scratch("exec.alloc.full");
    fp::scoped_trigger armed("tensor.pass.begin", fp::mode::fault,
                             /*skip=*/1, /*count=*/1);
    EXPECT_THROW(tr(buf.data()), fp::injected_fault);
    EXPECT_EQ(fp::fires("tensor.pass.begin"), 1u);
  }
  expect_same(buf, src, "batched pass not restored under a scratch fault");
  tr(buf.data());
  expect_same(buf, reference_permute3(src, 6, 5, 4, 2, 0, 1),
              "unarmed two-pass run");
}

// A rolled-back execution allocates nothing: neither the executor's
// scratch ladder nor the aligned allocator is reached.
TEST(TensorFailure, RolledBackExecutionAllocatesNothing) {
  for (const bool batched_first : {true, false}) {
    SCOPED_TRACE(batched_first ? "batched first" : "chunk first");
    const detail::tensor_plan plan = two_pass_plan(batched_first);
    const auto src = tensor_src();
    auto buf = src;
    nd_transposer<double> tr(plan);
    fp::scoped_trigger scratch("exec.alloc.full", fp::mode::count);
    fp::scoped_trigger aligned("alloc.aligned", fp::mode::count);
    fp::scoped_trigger armed("tensor.pass.begin", fp::mode::fault,
                             /*skip=*/1, /*count=*/1);
    EXPECT_THROW(tr(buf.data()), fp::injected_fault);
    expect_same(buf, src, "buffer not restored after the last-pass fault");
    EXPECT_EQ(fp::hits("exec.alloc.full"), 0u);
    EXPECT_EQ(fp::hits("alloc.aligned"), 0u);
  }
}

// A 2-D boundary fault inside slab k > 0 of a batched pass that follows
// another pass: the failing slab restores itself, and the stage loops
// undo the earlier slabs and then the earlier pass.
TEST(TensorFailure, SlabBoundaryFaultRestoresTheWholeTensor) {
  const detail::tensor_plan plan = two_pass_plan(/*batched_first=*/false);
  const auto src = tensor_src();
  // The slab engine's plan names the boundary: its first C2R pass always
  // exists (skinny fused_row, else row_shuffle).
  const transposer<double> slab(6, 4);
  const std::string name = detail::boundary_name(
      slab.plan(),
      slab.plan().engine == engine_kind::skinny ? "fused_row" : "row_shuffle");
  for (std::uint64_t k = 1; k < 5; ++k) {
    SCOPED_TRACE(k);
    auto buf = src;
    nd_transposer<double> tr(plan);
    fp::scoped_trigger armed(name.c_str(), fp::mode::fault, /*skip=*/k,
                             /*count=*/1);
    EXPECT_THROW(tr(buf.data()), fp::injected_fault);
    EXPECT_EQ(fp::fires(name.c_str()), 1u);
    expect_same(buf, src, "tensor not restored after an in-slab fault");
  }
  auto buf = src;
  nd_transposer<double> tr(plan);
  tr(buf.data());
  expect_same(buf, reference_permute3(src, 6, 5, 4, 1, 2, 0),
              "unarmed two-pass run");
}

// The chunk-scratch funnel walks its own OOM ladder: full (byte visited
// map) -> reduced (packed bitset) -> cycle_follow (no allocation), and
// every rung stays bit-exact.
TEST(TensorOomLadder, ChunkScratchDegradesAndStaysExact) {
  // A hand-built single-chunk-pass plan pins the funnel directly
  // (regardless of which decomposition the search would pick).
  const std::size_t d0 = 12;
  const std::size_t d1 = 10;
  const std::size_t d2 = 6;
  detail::tensor_plan plan;
  plan.norm.rank = 3;
  plan.norm.dims = {d0, d1, d2};
  plan.norm.perm = {1, 0, 2};
  plan.norm.total = d0 * d1 * d2;
  plan.passes.push_back(detail::nd_pass{1, d0, d1, d2});
  std::vector<double> src(plan.norm.total);
  for (std::size_t l = 0; l < src.size(); ++l) {
    src[l] = static_cast<double>(l) * 0.25;
  }
  const auto want = reference_permute3(src, d0, d1, d2, 1, 0, 2);

  {
    // Healthy: the full rung (one visited byte per grid slot).
    auto buf = src;
    nd_transposer<double> tr(plan);
    EXPECT_FALSE(tr.degraded());
    tr(buf.data());
    expect_same(buf, want, "full rung");
  }
  {
    // First rung refused: the funnel lands on the packed bitset.
    auto buf = src;
    fp::scoped_trigger no_full("tensor.chunk.alloc", fp::mode::oom,
                               /*skip=*/0, /*count=*/1);
    nd_transposer<double> tr(plan);
    EXPECT_TRUE(tr.degraded());
    tr(buf.data());
    expect_same(buf, want, "reduced rung");
  }
  {
    // Both allocating rungs refused: O(1)-space cycle following.
    auto buf = src;
    fp::scoped_trigger no_alloc("tensor.chunk.alloc", fp::mode::oom);
    nd_transposer<double> tr(plan);
    EXPECT_TRUE(tr.degraded());
    tr(buf.data());
    EXPECT_GE(fp::fires("tensor.chunk.alloc"), 2u);
    expect_same(buf, want, "cycle_follow rung");
  }
  {
    // Real allocator failures (the aligned-allocator shim) walk the same
    // ladder — the funnel allocates only through the audited path.
    auto buf = src;
    fp::scoped_trigger no_alloc("alloc.aligned", fp::mode::oom);
    nd_transposer<double> tr(plan);
    EXPECT_TRUE(tr.degraded());
    tr(buf.data());
    expect_same(buf, want, "allocator-driven cycle_follow");
  }
}

// Degraded tensor arenas surface in the context stats exactly as the 2-D
// ladder's do.
TEST(TensorOomLadder, ContextCountsDegradedTensorArenas) {
  fp::scoped_trigger no_alloc("tensor.chunk.alloc", fp::mode::oom);
  transpose_context ctx;
  const std::size_t dims[3] = {12, 10, 6};
  const int swap01[3] = {1, 0, 2};
  std::vector<double> buf(12 * 10 * 6);
  for (std::size_t l = 0; l < buf.size(); ++l) {
    buf[l] = static_cast<double>(l);
  }
  const auto src = buf;
  ctx.permute_nd(buf.data(), dims, swap01);
  expect_same(buf, reference_permute3(src, 12, 10, 6, 1, 0, 2),
              "degraded context run");
  // Only counted if the searched plan actually contains a chunk pass;
  // either way the run stayed exact above.
  if (fp::fires("tensor.chunk.alloc") > 0) {
    EXPECT_EQ(ctx.stats().arenas_degraded, 1u);
  }
}

// --- general-permutation failure semantics ----------------------------------

/// The permutation testbed: builds one pi per classifier kind so every
/// executor path walks the same fault matrix.
std::vector<std::uint32_t> perm_for_kind(perm_kind kind, std::size_t n) {
  std::vector<std::uint32_t> pi(n);
  switch (kind) {
    case perm_kind::identity:
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<std::uint32_t>(i);
      }
      break;
    case perm_kind::rotation:
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<std::uint32_t>((i + n / 4 + 1) % n);
      }
      break;
    case perm_kind::bit_reversal: {
      std::uint64_t w = 0;
      while ((std::size_t{1} << w) < n) {
        ++w;
      }
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<std::uint32_t>(inplace::detail::perm_bitrev(i, w));
      }
      break;
    }
    case perm_kind::transpose2d: {
      // cols = 4 (n must be divisible by 4 with n/4 >= 2).
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<std::uint32_t>(i == n - 1 ? n - 1
                                                      : i * 4 % (n - 1));
      }
      break;
    }
    case perm_kind::generic:
      // Affine i*7 + 3 mod n (gcd(7, n) = 1 for the sizes used, so it is
      // a bijection): mixes thoroughly, matches no structured classifier.
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<std::uint32_t>((i * 7 + 3) % n);
      }
      break;
  }
  const perm_plan check = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pi), false, options{}, sizeof(double));
  EXPECT_EQ(check.kind, kind) << "testbed perm misclassified, n=" << n;
  return pi;
}

/// Out-of-place reference for the gather/scatter contract.
std::vector<double> perm_reference(const std::vector<double>& src,
                                   const std::vector<std::uint32_t>& pi,
                                   bool inverse) {
  std::vector<double> want(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (inverse) {
      want[pi[i]] = src[i];
    } else {
      want[i] = src[pi[i]];
    }
  }
  return want;
}

TEST(PermFailure, ClassifyFaultLeavesDataAndPermutationUntouched) {
  const auto pi = perm_for_kind(perm_kind::generic, 64);
  const auto pi_src = pi;
  std::vector<double> buf(64);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  fp::scoped_trigger armed("perm.plan.classify");
  EXPECT_THROW(permute(std::span<double>(buf),
                       std::span<const std::uint32_t>(pi)),
               fp::injected_fault);
  expect_same(buf, src, "buffer touched by a planning fault");
  EXPECT_EQ(pi, pi_src);
}

TEST(PermFailure, ExecBeginFaultLeavesBufferUntouchedOnEveryPath) {
  for (const perm_kind kind :
       {perm_kind::rotation, perm_kind::bit_reversal, perm_kind::transpose2d,
        perm_kind::generic}) {
    SCOPED_TRACE(perm_kind_name(kind));
    const std::size_t n = kind == perm_kind::bit_reversal ? 64 : 60;
    const auto pi = perm_for_kind(kind, n);
    std::vector<double> buf(n);
    util::fill_iota(std::span<double>(buf));
    const auto src = buf;
    transpose_context ctx;
    fp::scoped_trigger armed("perm.exec.begin");
    EXPECT_THROW(ctx.permute(buf.data(), std::span<const std::uint32_t>(pi)),
                 fp::injected_fault);
    expect_same(buf, src, "buffer touched before the entry failpoint");
  }
}

/// Arms perm.exec.stage with the given skip, runs one permutation, and
/// asserts the restored-or-untouched contract: a fired fault must leave
/// the buffer bit-exact at its input; an un-fired one (skip past the last
/// stage) must leave it fully permuted.  Returns whether the fault fired.
bool check_perm_stage_rollback(const std::vector<std::uint32_t>& pi,
                               bool inverse, std::uint64_t skip) {
  const std::size_t n = pi.size();
  std::vector<double> buf(n);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pi), inverse, options{}, sizeof(double));
  permuter<double> p(plan, options{}, buf.data());
  bool fired = false;
  {
    fp::scoped_trigger armed("perm.exec.stage", fp::mode::fault, skip,
                             /*count=*/1);
    try {
      p.execute(buf.data(), std::span<const std::uint32_t>(pi), false);
    } catch (const fp::injected_fault&) {
      fired = true;
    }
  }
  if (fired) {
    expect_same(buf, src, "buffer not restored after a stage fault");
  } else {
    expect_same(buf, perm_reference(src, pi, inverse),
                "unfired run must complete the permutation");
  }
  return fired;
}

TEST(PermFailure, StageFaultsRollBackEveryExecutor) {
  // Rotation, 3-reversal form (gcd(60, 16) = 4 but 1024/256 gives the
  // juggling pass below; k = 7 keeps gcd 1 here): three reversal stages.
  const struct {
    perm_kind kind;
    std::size_t n;
    const char* what;
  } cases[] = {
      {perm_kind::rotation, 60, "rotation"},
      {perm_kind::bit_reversal, 8, "bitrev naive"},
      {perm_kind::bit_reversal, 1u << 14, "bitrev cobra"},
      {perm_kind::generic, 200, "generic"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const auto pi = perm_for_kind(c.kind, c.n);
    for (const bool inverse : {false, true}) {
      SCOPED_TRACE(inverse ? "scatter" : "gather");
      bool fired = true;
      for (std::uint64_t skip = 0; fired && skip < 64; ++skip) {
        fired = check_perm_stage_rollback(pi, inverse, skip);
      }
      // Every executor must have at least one live stage failpoint.
      EXPECT_TRUE(check_perm_stage_rollback(pi, inverse, 0));
    }
  }
}

TEST(PermFailure, TransposeDelegateInheritsTheRollbackContract) {
  // The transpose2d path's stages are the 2-D engine's own; a fault in
  // the delegate must still surface through permute with the buffer
  // restored (the transitive contract).
  const auto pi = perm_for_kind(perm_kind::transpose2d, 64);
  std::vector<double> buf(64);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  transpose_context ctx;
  fp::scoped_trigger armed("exec.stage.boundary");
  try {
    ctx.permute(buf.data(), std::span<const std::uint32_t>(pi));
    // The planned engine may not traverse that failpoint; completing
    // exactly is then the contract.
    expect_same(buf, perm_reference(src, pi, false), "unfired delegate run");
  } catch (const fp::injected_fault&) {
    expect_same(buf, src, "delegate fault must restore through permute");
  }
}

TEST(PermFailure, OomLadderDemotesRotationToThreeReversal) {
  std::vector<std::uint32_t> pi(1024);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    pi[i] = static_cast<std::uint32_t>((i + 256) % pi.size());
  }
  std::vector<double> buf(1024);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pi), false, options{}, sizeof(double));
  fp::scoped_trigger no_alloc("perm.exec.alloc", fp::mode::oom);
  permuter<double> p(plan, options{}, buf.data());
  EXPECT_EQ(p.plan().rung, scratch_rung::cycle_follow);
  EXPECT_TRUE(p.degraded());
  p.execute(buf.data(), std::span<const std::uint32_t>(pi), false);
  expect_same(buf, perm_reference(src, pi, false), "demoted rotation");
}

TEST(PermFailure, OomLadderDemotesCobraToNaiveSweep) {
  const auto pi = perm_for_kind(perm_kind::bit_reversal, 1u << 14);
  std::vector<double> buf(pi.size());
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pi), false, options{}, sizeof(double));
  ASSERT_GE(plan.cobra_q, 2u) << "testbed too small to engage COBRA";
  fp::scoped_trigger no_alloc("perm.exec.alloc", fp::mode::oom);
  permuter<double> p(plan, options{}, buf.data());
  EXPECT_EQ(p.plan().cobra_q, 0u);
  EXPECT_EQ(p.plan().rung, scratch_rung::cycle_follow);
  p.execute(buf.data(), std::span<const std::uint32_t>(pi), false);
  expect_same(buf, perm_reference(src, pi, false), "demoted bit reversal");
}

TEST(PermFailure, OomLadderWalksGenericRungsAndStaysExact) {
  const auto pi = perm_for_kind(perm_kind::generic, 300);
  std::vector<double> buf(300);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  const auto want = perm_reference(src, pi, false);
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pi), false, options{}, sizeof(double));
  {
    // First rung denied: the bitset rung takes over.
    auto run = src;
    fp::scoped_trigger no_full("perm.exec.alloc", fp::mode::oom, /*skip=*/0,
                               /*count=*/1);
    permuter<double> p(plan, options{}, run.data());
    EXPECT_EQ(p.plan().rung, scratch_rung::reduced);
    p.execute(run.data(), std::span<const std::uint32_t>(pi), false);
    expect_same(run, want, "reduced rung");
  }
  {
    // Both allocating rungs denied: the O(1) leader-min scan.
    auto run = src;
    fp::scoped_trigger no_alloc("perm.exec.alloc", fp::mode::oom);
    permuter<double> p(plan, options{}, run.data());
    EXPECT_EQ(p.plan().rung, scratch_rung::cycle_follow);
    p.execute(run.data(), std::span<const std::uint32_t>(pi), false);
    expect_same(run, want, "cycle_follow rung");
  }
}

TEST(PermFailure, OomOnTheMemoKeyDemotesAndExecutionAllocatesNothing) {
  // A generic arena's memo key (the pi its leaders belong to) is sized
  // inside the visited-scratch funnel: an OOM on it demotes at
  // construction instead of escaping a later execute(), and the
  // leader-min rung keeps no memo at all.
  const auto pi = perm_for_kind(perm_kind::generic, 300);
  std::vector<double> buf(300);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  const auto want = perm_reference(src, pi, false);
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pi), false, options{}, sizeof(double));
  {
    // The byte-map rung's first aligned allocation is the memo key.
    std::optional<permuter<double>> p;
    {
      fp::scoped_trigger no_key("alloc.aligned", fp::mode::oom, /*skip=*/0,
                                /*count=*/1);
      p.emplace(plan, options{}, buf.data());
      EXPECT_EQ(fp::fires("alloc.aligned"), 1u);
    }
    EXPECT_EQ(p->plan().rung, scratch_rung::reduced);
    EXPECT_GE(p->cached_bytes(), pi.size() * sizeof(std::uint64_t))
        << "the memo key must be sized at construction";
    for (int call = 0; call < 2; ++call) {  // cold, then the memo replay
      auto run = src;
      p->execute(run.data(), std::span<const std::uint32_t>(pi), false);
      expect_same(run, want, "memo-key OOM demoted to the bitset rung");
    }
  }
  for (const bool inverse : {false, true}) {
    // Every aligned allocation denied: the leader-min rung, whose cold
    // and repeated runs never reach the aligned allocator.
    SCOPED_TRACE(inverse ? "scatter" : "gather");
    const perm_plan q = make_perm_plan<std::uint32_t>(
        std::span<const std::uint32_t>(pi), inverse, options{},
        sizeof(double));
    fp::scoped_trigger no_alloc("alloc.aligned", fp::mode::oom);
    permuter<double> p(q, options{}, buf.data());
    EXPECT_EQ(p.plan().rung, scratch_rung::cycle_follow);
    EXPECT_EQ(p.cached_bytes(), 0u);
    const std::uint64_t attempts = fp::hits("alloc.aligned");
    for (int call = 0; call < 2; ++call) {
      auto run = src;
      p.execute(run.data(), std::span<const std::uint32_t>(pi), false);
      expect_same(run, perm_reference(src, pi, inverse), "leader-min rung");
    }
    EXPECT_EQ(fp::hits("alloc.aligned"), attempts)
        << "a leader-min execution reached the aligned allocator";
    EXPECT_EQ(p.cached_bytes(), 0u) << "the leader-min rung kept a memo";
    // Its rollback rediscovers the applied leaders, also scratch-free.
    for (const std::uint64_t skip : {0u, 1u, 5u}) {
      auto run = src;
      fp::scoped_trigger stage("perm.exec.stage", fp::mode::fault, skip,
                               /*count=*/1);
      EXPECT_THROW(
          p.execute(run.data(), std::span<const std::uint32_t>(pi), false),
          fp::injected_fault);
      expect_same(run, src, "leader-min rung did not roll back");
    }
    EXPECT_EQ(fp::hits("alloc.aligned"), attempts);
  }
}

TEST(PermFailure, AllocFaultThroughContextLeavesNothingBuilt) {
  // A non-OOM alloc fault (an injected hard fault, not bad_alloc) must
  // propagate out of the arena build with the buffer untouched and no
  // execution counted — for the delegate path too.
  for (const perm_kind kind : {perm_kind::transpose2d, perm_kind::generic}) {
    SCOPED_TRACE(perm_kind_name(kind));
    const auto pi = perm_for_kind(kind, 60);
    std::vector<double> buf(60);
    util::fill_iota(std::span<double>(buf));
    const auto src = buf;
    transpose_context ctx;
    fp::scoped_trigger armed("perm.exec.alloc");
    EXPECT_THROW(ctx.permute(buf.data(), std::span<const std::uint32_t>(pi)),
                 fp::injected_fault);
    expect_same(buf, src, "buffer touched by an arena-build fault");
    EXPECT_EQ(ctx.stats().executions, 0u);
  }
}

TEST(PermFailure, ContextCountsDegradedPermArenas) {
  telemetry::collector col;
  telemetry::scoped_sink sink(&col);
  transpose_context ctx;
  const auto pi = perm_for_kind(perm_kind::generic, 128);
  std::vector<double> buf(128);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  {
    fp::scoped_trigger no_alloc("perm.exec.alloc", fp::mode::oom);
    ctx.permute(buf.data(), std::span<const std::uint32_t>(pi));
  }
  expect_same(buf, perm_reference(src, pi, false), "degraded context run");
  EXPECT_EQ(ctx.stats().arenas_degraded, 1u);
  bool saw_demoted = false;
  for (const auto& pc : col.plan_counts()) {
    if (std::string(pc.rec.engine) == "perm" &&
        std::string(pc.rec.rung) != "full") {
      saw_demoted = true;
    }
  }
  EXPECT_TRUE(saw_demoted) << "telemetry lost the demoted rung";
}

TEST(PermFailure, InvertBeginFaultLeavesPermutationUntouched) {
  std::vector<std::uint32_t> pi = {2, 0, 1, 4, 3};
  const auto src = pi;
  fp::scoped_trigger armed("perm.inv.begin");
  EXPECT_THROW(invert_permutation(std::span<std::uint32_t>(pi)),
               fp::injected_fault);
  EXPECT_EQ(pi, src);
}

TEST(PermFailure, EnvArmedFaultsRestoreAcrossEntryPoints) {
  // The soak/sanitizer drivers arm perm.* through the environment; prove
  // the restored-or-untouched contract holds under that arming path for
  // every public permutation entry point.
  const auto pi = perm_for_kind(perm_kind::generic, 96);
  std::vector<double> buf(96);
  util::fill_iota(std::span<double>(buf));
  const auto src = buf;
  {
    const env_guard guard("INPLACE_FAILPOINTS", "perm.exec.stage");
    fp::reload_env();
    EXPECT_THROW(permute(std::span<double>(buf),
                         std::span<const std::uint32_t>(pi)),
                 fp::injected_fault);
    expect_same(buf, src, "env-armed stage fault (gather)");
    EXPECT_THROW(permute_inverse(std::span<double>(buf),
                                 std::span<const std::uint32_t>(pi)),
                 fp::injected_fault);
    expect_same(buf, src, "env-armed stage fault (scatter)");
  }
  {
    const env_guard guard("INPLACE_FAILPOINTS", "perm.inv.begin");
    fp::reload_env();
    auto inv = pi;
    EXPECT_THROW(invert_permutation(std::span<std::uint32_t>(inv)),
                 fp::injected_fault);
    EXPECT_EQ(inv, pi);
  }
  // Env restored: the same calls now succeed end to end.
  permute(std::span<double>(buf), std::span<const std::uint32_t>(pi));
  expect_same(buf, perm_reference(src, pi, false), "post-arming rerun");
}

}  // namespace
