// Telemetry-on tests.  This TU compiles with INPLACE_TELEMETRY=1 (see
// tests/CMakeLists.txt), so the INPLACE_TELEMETRY_SPAN hooks in the engine
// headers are live here — the same per-TU opt-in the bench binaries use.
// Verifies span nesting, the Eq. 37 byte accounting (2*m*n*elem_size moved
// per transposition), plan records, collector bounds and sink scoping.

#include "core/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.hpp"
#include "core/perm.hpp"
#include "core/tensor.hpp"
#include "core/transpose.hpp"
#include "util/matrix.hpp"

namespace {

using namespace inplace;

static_assert(INPLACE_TELEMETRY_ENABLED == 1,
              "test_telemetry must build with INPLACE_TELEMETRY");

TEST(Telemetry, StageNamesAreStable) {
  EXPECT_STREQ(telemetry::stage_name(telemetry::stage::total), "total");
  EXPECT_STREQ(telemetry::stage_name(telemetry::stage::prerotate),
               "prerotate");
  EXPECT_STREQ(telemetry::stage_name(telemetry::stage::row_shuffle),
               "row_shuffle");
  EXPECT_STREQ(telemetry::stage_name(telemetry::stage::col_shuffle),
               "col_shuffle");
}

TEST(Telemetry, ScopedSinkInstallsAndRestores) {
  EXPECT_EQ(telemetry::current_sink(), nullptr);
  {
    telemetry::collector outer;
    telemetry::scoped_sink outer_guard(&outer);
    EXPECT_EQ(telemetry::current_sink(), &outer);
    {
      telemetry::collector inner;
      telemetry::scoped_sink inner_guard(&inner);
      EXPECT_EQ(telemetry::current_sink(), &inner);
    }
    EXPECT_EQ(telemetry::current_sink(), &outer);
  }
  EXPECT_EQ(telemetry::current_sink(), nullptr);
}

TEST(Telemetry, TransposeEmitsNestedStageSpans) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  std::vector<double> a(64 * 48);
  util::fill_iota(std::span<double>(a));
  transpose(a.data(), 64, 48);

  const auto spans = coll.raw_spans();
  ASSERT_FALSE(spans.empty());
  bool saw_total = false;
  bool saw_stage = false;
  for (const auto& s : spans) {
    if (s.s == telemetry::stage::total) {
      saw_total = true;
      EXPECT_EQ(s.depth, 0);
    } else {
      saw_stage = true;
      EXPECT_EQ(s.depth, 1) << telemetry::stage_name(s.s);
    }
    EXPECT_GE(s.seconds, 0.0);
  }
  EXPECT_TRUE(saw_total);
  EXPECT_TRUE(saw_stage);
  EXPECT_EQ(telemetry::span_depth(), 0);  // all spans closed
}

TEST(Telemetry, TotalSpanCarriesEq37Bytes) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  const std::uint64_t m = 64;
  const std::uint64_t n = 48;
  std::vector<double> a(m * n);
  util::fill_iota(std::span<double>(a));
  transpose(a.data(), m, n);

  const auto totals = coll.totals();
  const auto& total =
      totals[static_cast<std::size_t>(telemetry::stage::total)];
  EXPECT_EQ(total.calls, 1u);
  // Eq. 37: a transposition moves every element once — 2*m*n*elem_size
  // bytes of traffic (one read + one write per element).
  EXPECT_EQ(total.bytes_moved, 2 * m * n * sizeof(double));
  // Theorem 6: scratch stays within max(m, n) elements (plus the engines'
  // constant-size cache-aware buffers, all accounted by the plan).
  EXPECT_GT(total.scratch_bytes_max, 0u);
}

TEST(Telemetry, PlanRecordsMatchThePlan) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  transposer<float> tr(500, 500);  // blocked engine (square)
  std::vector<float> a(500 * 500);
  util::fill_iota(std::span<float>(a));
  tr(a.data());
  tr(a.data());  // repeated runs dedup into one record with count 2

  const auto plans = coll.plan_counts();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].count, 2u);
  EXPECT_STREQ(plans[0].rec.engine, engine_name(tr.plan().engine));
  EXPECT_STREQ(plans[0].rec.direction, direction_name(tr.plan().dir));
  EXPECT_EQ(plans[0].rec.m, tr.plan().m);
  EXPECT_EQ(plans[0].rec.n, tr.plan().n);
  EXPECT_EQ(plans[0].rec.elem_size, sizeof(float));
  EXPECT_EQ(coll.plans_seen(), 2u);
  EXPECT_FALSE(coll.plans_truncated());
}

TEST(Telemetry, CollectorRawCapBoundsMemory) {
  telemetry::collector coll(/*raw_cap=*/2);
  telemetry::scoped_sink guard(&coll);
  std::vector<float> a(32 * 24);
  for (int k = 0; k < 5; ++k) {
    util::fill_iota(std::span<float>(a));
    transpose(a.data(), 32, 24);
  }
  EXPECT_EQ(coll.raw_spans().size(), 2u);     // capped
  EXPECT_GT(coll.spans_seen(), 2u);           // but still counted
  // The on-the-fly aggregates keep full totals past the cap.
  const auto totals = coll.totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(telemetry::stage::total)].calls,
            5u);
}

TEST(Telemetry, ClearResetsEverything) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  std::vector<float> a(16 * 12);
  util::fill_iota(std::span<float>(a));
  transpose(a.data(), 16, 12);
  EXPECT_GT(coll.spans_seen(), 0u);
  coll.clear();
  EXPECT_EQ(coll.spans_seen(), 0u);
  EXPECT_EQ(coll.plans_seen(), 0u);
  EXPECT_TRUE(coll.raw_spans().empty());
}

// Regression: the degenerate-shape early return used to skip the
// telemetry hooks entirely, so 1 x n / m x 1 calls vanished from bench
// JSON.  Every execution path — a planning transposer, a transposer
// adopting a plan, and the context route — must record the plan
// and a total span even when there is no data movement to do.
TEST(Telemetry, DegenerateShapesStillRecordPlanAndTotalSpan) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  const std::uint64_t n = 17;
  std::vector<float> row(n);
  util::fill_iota(std::span<float>(row));
  const auto before = row;

  transposer<float> tr(1, n);
  tr(row.data());                               // executor path
  transposer<float> adopted(tr.plan());
  adopted(row.data());                          // adopted-plan path
  transpose_context ctx;
  ctx.transpose(row.data(), n, 1);              // context path
  EXPECT_EQ(row, before);  // a vector transposes to itself

  const auto totals = coll.totals();
  const auto& total =
      totals[static_cast<std::size_t>(telemetry::stage::total)];
  EXPECT_EQ(total.calls, 3u);
  EXPECT_EQ(total.bytes_moved, 3 * 2 * n * sizeof(float));
  EXPECT_EQ(coll.plans_seen(), 3u);
  // Two distinct records: the 1 x n plan (seen twice) and the n x 1 plan.
  ASSERT_EQ(coll.plan_counts().size(), 2u);
  EXPECT_EQ(telemetry::span_depth(), 0);
}

// Regression: permute3's early returns (identity permutation, empty or
// unit extents) used to skip telemetry entirely, so layout-conversion
// sweeps undercounted exactly the calls the normalizer elides.  Every
// tensor path — including the ones that move no data — must record a
// plan ("tensor" engine, direction naming the path) and a total span.
TEST(Telemetry, TensorIdentityAndEmptyPathsStillRecord) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  std::vector<float> a(2 * 3 * 4);
  util::fill_iota(std::span<float>(a));
  const auto before = a;
  permute3(a.data(), 2, 3, 4, {0, 1, 2});        // identity permutation
  EXPECT_EQ(a, before);
  permute3<float>(nullptr, 2, 0, 4, {2, 1, 0});  // empty tensor
  permute3(a.data(), 1, 24, 1, {2, 1, 0});       // identity in disguise
  EXPECT_EQ(a, before);

  std::uint64_t identity = 0;
  std::uint64_t empty = 0;
  for (const auto& p : coll.plan_counts()) {
    if (std::string(p.rec.engine) != "tensor") {
      continue;
    }
    if (std::string(p.rec.direction) == "identity") {
      identity += p.count;
      EXPECT_EQ(p.rec.m, 24u);     // element count
      EXPECT_EQ(p.rec.n, 0u);      // passes run
    } else if (std::string(p.rec.direction) == "empty") {
      empty += p.count;
      EXPECT_EQ(p.rec.m, 0u);
    }
  }
  EXPECT_EQ(identity, 2u);
  EXPECT_EQ(empty, 1u);
  const auto totals = coll.totals();
  const auto& total =
      totals[static_cast<std::size_t>(telemetry::stage::total)];
  EXPECT_EQ(total.calls, 3u);  // one envelope span per call, even empty
  EXPECT_EQ(telemetry::span_depth(), 0);
}

// A real N-D run records the "tensor" plan (direction "nd", n = pass
// count, block_width = normalized rank) plus nested spans: the envelope,
// one span per pass, and the inner 2-D executor's own records beneath.
TEST(Telemetry, TensorNdRunsRecordEnvelopeAndPerPassSpans) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  std::vector<float> a(6 * 5 * 4);
  util::fill_iota(std::span<float>(a));
  permute3(a.data(), 6, 5, 4, {2, 1, 0});

  std::uint64_t nd = 0;
  std::uint64_t nd_passes = 0;
  for (const auto& p : coll.plan_counts()) {
    if (std::string(p.rec.engine) == "tensor") {
      ASSERT_STREQ(p.rec.direction, "nd");
      nd += p.count;
      nd_passes = p.rec.n;
      EXPECT_EQ(p.rec.m, 120u);
      EXPECT_EQ(p.rec.block_width, 3u);  // normalized rank
    }
  }
  EXPECT_EQ(nd, 1u);
  EXPECT_GE(nd_passes, 1u);
  const auto totals = coll.totals();
  const auto& total =
      totals[static_cast<std::size_t>(telemetry::stage::total)];
  // Envelope + one span per pass (the inner executors add more).
  EXPECT_GE(total.calls, 1u + nd_passes);
  EXPECT_EQ(telemetry::span_depth(), 0);
}

// Context cache hits set plan_record::from_cache, so warm and cold
// executions of one plan land in separate dedup rows instead of blending.
TEST(Telemetry, ContextSeparatesWarmAndColdPlanRecords) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  transpose_context ctx;  // fresh context: first call is genuinely cold
  std::vector<double> a(40 * 28);
  util::fill_iota(std::span<double>(a));
  ctx.transpose(a.data(), 40, 28);  // cold: allocates + discovers cycles
  ctx.transpose(a.data(), 40, 28);  // warm
  ctx.transpose(a.data(), 40, 28);  // warm

  const auto plans = coll.plan_counts();
  ASSERT_EQ(plans.size(), 2u);
  std::uint64_t cold = 0;
  std::uint64_t warm = 0;
  for (const auto& p : plans) {
    EXPECT_EQ(p.rec.m, 40u);
    EXPECT_EQ(p.rec.n, 28u);
    (p.rec.from_cache ? warm : cold) += p.count;
  }
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(warm, 2u);
}

// Concurrent transposes under one installed sink: the collector contract
// says it must tolerate calls from any thread, and the sink registry is a
// process-global atomic.  (Named to contain "Transpose" so the sanitizer
// matrix's TSan filter runs it.)
TEST(Telemetry, ConcurrentTransposesRecordUnderOneSink) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  transpose_context ctx;
  constexpr int workers = 6;
  constexpr int iters = 8;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t m = 24 + static_cast<std::size_t>(t % 3) * 8;
      std::vector<float> a(m * 18);
      util::fill_iota(std::span<float>(a));
      for (int k = 0; k < iters; ++k) {
        ctx.transpose(a.data(), m, 18);
      }
      EXPECT_EQ(telemetry::span_depth(), 0);  // per-thread nesting closed
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const auto totals = coll.totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(telemetry::stage::total)].calls,
            static_cast<std::uint64_t>(workers * iters));
  EXPECT_EQ(coll.plans_seen(), static_cast<std::uint64_t>(workers * iters));
}

// The general-permutation engine reports as engine="perm" with the
// classifier verdict in the calibration slot and m carrying the length
// (n = 1 keeps the 2*m*n traffic model exact) — DESIGN.md §16.
TEST(Telemetry, PermuteEmitsPermPlanRecordsWithClassifierVerdict) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  const std::size_t n = 1024;
  std::vector<std::uint32_t> pi(n);
  for (std::size_t i = 0; i < n; ++i) {
    pi[i] = static_cast<std::uint32_t>((i + 256) % n);  // rotation, g = 256
  }
  std::vector<double> a(n);
  util::fill_iota(std::span<double>(a));
  permute(std::span<double>(a), std::span<const std::uint32_t>(pi));
  permute_inverse(std::span<double>(a), std::span<const std::uint32_t>(pi));

  std::uint64_t gather = 0;
  std::uint64_t scatter = 0;
  for (const auto& pc : coll.plan_counts()) {
    if (std::string(pc.rec.engine) != "perm") {
      continue;
    }
    EXPECT_EQ(pc.rec.m, n);
    EXPECT_EQ(pc.rec.n, 1u);
    EXPECT_EQ(pc.rec.elem_size, sizeof(double));
    EXPECT_STREQ(pc.rec.calibration, "rotation");
    EXPECT_EQ(pc.rec.block_width, 256u);  // the juggling group g
    EXPECT_STREQ(pc.rec.rung, "full");
    (std::string(pc.rec.direction) == "scatter" ? scatter : gather) +=
        pc.count;
  }
  EXPECT_EQ(gather, 1u);
  EXPECT_EQ(scatter, 1u);
  // The total span carries the Eq. 37 traffic model: 2*n elements moved.
  bool saw_total = false;
  for (const auto& sp : coll.raw_spans()) {
    if (sp.s == telemetry::stage::total &&
        sp.bytes_moved == 2 * n * sizeof(double)) {
      saw_total = true;
    }
  }
  EXPECT_TRUE(saw_total);
}

TEST(Telemetry, PermuteTransposeDelegateEmitsBothRecords) {
  // The documented two-record contract: the transpose2d classification
  // emits the perm record and the delegated 2-D engine's own record,
  // side by side.
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  const std::uint64_t rows = 32;
  const std::uint64_t cols = 48;
  const std::uint64_t n = rows * cols;
  std::vector<std::uint64_t> pi(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    pi[i] = i == n - 1 ? n - 1 : i * cols % (n - 1);
  }
  std::vector<float> a(n);
  util::fill_iota(std::span<float>(a));
  permute(std::span<float>(a), std::span<const std::uint64_t>(pi));

  bool saw_perm = false;
  bool saw_delegate = false;
  for (const auto& pc : coll.plan_counts()) {
    if (std::string(pc.rec.engine) == "perm") {
      saw_perm = true;
      EXPECT_STREQ(pc.rec.calibration, "transpose2d");
      EXPECT_EQ(pc.rec.m, n);
    } else {
      saw_delegate = true;
      EXPECT_EQ(pc.rec.m, rows);
      EXPECT_EQ(pc.rec.n, cols);
    }
  }
  EXPECT_TRUE(saw_perm);
  EXPECT_TRUE(saw_delegate);
}

TEST(Telemetry, PermuteIdentityAndEmptyPathsStillRecord) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  std::vector<int> empty;
  std::vector<std::uint32_t> pi0;
  permute(std::span<int>(empty), std::span<const std::uint32_t>(pi0));
  std::vector<int> a = {1, 2, 3};
  std::vector<std::uint32_t> id = {0, 1, 2};
  permute(std::span<int>(a), std::span<const std::uint32_t>(id));

  std::uint64_t identity_records = 0;
  for (const auto& pc : coll.plan_counts()) {
    if (std::string(pc.rec.engine) == "perm") {
      EXPECT_STREQ(pc.rec.calibration, "identity");
      identity_records += pc.count;
    }
  }
  EXPECT_EQ(identity_records, 2u);
  EXPECT_EQ(telemetry::span_depth(), 0);
}

TEST(Telemetry, ContextSeparatesWarmAndColdPermRecords) {
  telemetry::collector coll;
  telemetry::scoped_sink guard(&coll);
  transpose_context ctx;
  std::vector<std::uint32_t> pi = {5, 3, 0, 4, 1, 2, 7, 6};
  std::vector<double> a(8);
  util::fill_iota(std::span<double>(a));
  ctx.permute(a.data(), std::span<const std::uint32_t>(pi));  // cold
  ctx.permute(a.data(), std::span<const std::uint32_t>(pi));  // warm
  ctx.permute(a.data(), std::span<const std::uint32_t>(pi));  // warm

  std::uint64_t cold = 0;
  std::uint64_t warm = 0;
  for (const auto& pc : coll.plan_counts()) {
    if (std::string(pc.rec.engine) != "perm") {
      continue;
    }
    (pc.rec.from_cache ? warm : cold) += pc.count;
  }
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(warm, 2u);
}

TEST(Telemetry, NoSinkMeansNoRecords) {
  ASSERT_EQ(telemetry::current_sink(), nullptr);
  std::vector<float> a(16 * 12);
  util::fill_iota(std::span<float>(a));
  EXPECT_NO_THROW(transpose(a.data(), 16, 12));  // spans open, nobody listens
  EXPECT_EQ(telemetry::span_depth(), 0);
}

}  // namespace
