// Tests for the planner (core/plan): the Section 5.2 heuristic, Theorem 2
// extent swapping, column-major normalization, engine resolution, block
// width sizing, scratch accounting and validation.

#include "core/plan.hpp"

#include <gtest/gtest.h>

#include "core/errors.hpp"

namespace {

using namespace inplace;

int dummy;
void* data = &dummy;

TEST(Plan, HeuristicPicksC2RForTallMatrices) {
  const auto p = make_plan(data, 2000, 100, storage_order::row_major, {},
                           4);
  EXPECT_EQ(p.dir, direction::c2r);
  EXPECT_EQ(p.m, 2000u);
  EXPECT_EQ(p.n, 100u);
}

TEST(Plan, HeuristicPicksR2CWithSwappedExtentsForWideMatrices) {
  const auto p = make_plan(data, 100, 2000, storage_order::row_major, {},
                           4);
  EXPECT_EQ(p.dir, direction::r2c);
  // Theorem 2: R2C runs with swapped extents.
  EXPECT_EQ(p.m, 2000u);
  EXPECT_EQ(p.n, 100u);
}

TEST(Plan, SquareMatrixGoesToR2CBranch) {
  // m > n is strict, so squares take the else branch — either direction
  // is correct for squares.
  const auto p = make_plan(data, 64, 64, storage_order::row_major, {}, 4);
  EXPECT_EQ(p.dir, direction::r2c);
}

TEST(Plan, ColumnMajorNormalizesToSwappedRowMajor) {
  // A col-major m x n buffer is a row-major n x m buffer: plans must
  // coincide.
  const auto pc = make_plan(data, 300, 70, storage_order::col_major, {}, 8);
  const auto pr = make_plan(data, 70, 300, storage_order::row_major, {}, 8);
  EXPECT_EQ(pc.dir, pr.dir);
  EXPECT_EQ(pc.m, pr.m);
  EXPECT_EQ(pc.n, pr.n);
}

TEST(Plan, ForcedDirectionsOverrideHeuristic) {
  options oc;
  oc.alg = options::algorithm::c2r;
  const auto pc = make_plan(data, 10, 1000, storage_order::row_major, oc, 4);
  EXPECT_EQ(pc.dir, direction::c2r);
  EXPECT_EQ(pc.m, 10u);

  options orr;
  orr.alg = options::algorithm::r2c;
  const auto pr = make_plan(data, 1000, 10, storage_order::row_major, orr,
                            4);
  EXPECT_EQ(pr.dir, direction::r2c);
  EXPECT_EQ(pr.m, 10u);  // swapped
}

TEST(Plan, BlockWidthTracksElementSize) {
  options opts;
  opts.block_bytes = 128;
  EXPECT_EQ(make_plan(data, 100, 50, storage_order::row_major, opts, 8)
                .block_width,
            16u);
  EXPECT_EQ(make_plan(data, 100, 50, storage_order::row_major, opts, 4)
                .block_width,
            32u);
  // Wide elements floor at 4 so the sub-row machinery stays worthwhile.
  EXPECT_EQ(make_plan(data, 100, 50, storage_order::row_major, opts, 64)
                .block_width,
            4u);
}

TEST(Plan, SkinnySelectionRules) {
  // Narrow + tall (post-heuristic n <= 32 and m > n): skinny.
  EXPECT_EQ(make_plan(data, 100000, 8, storage_order::row_major, {}, 4)
                .engine,
            engine_kind::skinny);
  EXPECT_EQ(make_plan(data, 8, 100000, storage_order::row_major, {}, 4)
                .engine,
            engine_kind::skinny);  // wide: swapped to tall
  // Wide-enough problems stay blocked.
  EXPECT_EQ(make_plan(data, 1000, 40, storage_order::row_major, {}, 4)
                .engine,
            engine_kind::blocked);
  // Forcing skinny onto an unsuitable shape quietly degrades to blocked.
  options force;
  force.engine = engine_kind::skinny;
  EXPECT_EQ(make_plan(data, 40, 40, storage_order::row_major, force, 4)
                .engine,
            engine_kind::blocked);
  // Forcing reference is honored.
  options ref;
  ref.engine = engine_kind::reference;
  EXPECT_EQ(make_plan(data, 1000, 8, storage_order::row_major, ref, 4)
                .engine,
            engine_kind::reference);
}

TEST(Plan, StrengthReductionAndThreadsPropagate) {
  options opts;
  opts.strength_reduction = false;
  opts.threads = 5;
  const auto p = make_plan(data, 10, 10, storage_order::row_major, opts, 4);
  EXPECT_FALSE(p.strength_reduction);
  EXPECT_EQ(p.threads, 5);
}

TEST(Plan, ScratchBoundIsTheoremSix) {
  const auto p = make_plan(data, 5000, 300, storage_order::row_major, {},
                           8);
  EXPECT_EQ(p.scratch_elements(),
            5000 + (p.block_width - 1) * p.block_width + p.block_width);
}

TEST(Plan, DirectedPlanKeepsExtentsVerbatim) {
  const auto p =
      make_directed_plan(data, 10, 1000, direction::c2r, {}, 4);
  EXPECT_EQ(p.m, 10u);
  EXPECT_EQ(p.n, 1000u);
  EXPECT_EQ(p.dir, direction::c2r);
}

TEST(Plan, ShapeOnlyPlanningSkipsPointerCheck) {
  EXPECT_NO_THROW(make_plan_for_shape(100, 100, storage_order::row_major,
                                      {}, 4));
  EXPECT_THROW(
      make_plan_for_shape(std::size_t{1} << 40, std::size_t{1} << 40,
                          storage_order::row_major, {}, 4),
      error);
}

TEST(Plan, Validation) {
  EXPECT_THROW(
      make_plan(nullptr, 2, 2, storage_order::row_major, {}, 4), error);
  EXPECT_NO_THROW(
      make_plan(nullptr, 0, 2, storage_order::row_major, {}, 4));
  EXPECT_THROW(make_plan(data, 2, 2, storage_order::row_major, {}, 0),
               error);
  EXPECT_THROW(make_plan(data, std::size_t{1} << 40, std::size_t{1} << 40,
                         storage_order::row_major, {}, 4),
               error);
}

}  // namespace
