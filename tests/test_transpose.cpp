// End-to-end correctness of the in-place transposition API across engines,
// directions, element types and shapes — plus Theorem 6's element-touch
// bound and the argument-validation contract.

#include "core/transpose.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cpu/soa.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;

struct shape {
  std::uint64_t m;
  std::uint64_t n;
};

std::ostream& operator<<(std::ostream& os, const shape& s) {
  return os << s.m << "x" << s.n;
}

const shape kShapes[] = {
    {1, 1},   {1, 40},  {40, 1},  {2, 3},    {3, 2},    {3, 8},   {4, 8},
    {8, 4},   {5, 5},   {16, 16}, {7, 11},   {6, 9},    {12, 18}, {18, 12},
    {32, 48}, {48, 32}, {13, 64}, {64, 13},  {30, 42},  {97, 89}, {100, 10},
    {10, 100}, {36, 60}, {128, 96}, {33, 55}, {255, 85}, {85, 255},
    {200, 200}, {211, 199}, {512, 24}, {24, 512}, {1000, 6}, {6, 1000},
    {384, 144}, {144, 384}, {1024, 31}, {771, 129}};

class TransposeShapes : public ::testing::TestWithParam<shape> {};
INSTANTIATE_TEST_SUITE_P(AllShapes, TransposeShapes,
                         ::testing::ValuesIn(kShapes));

template <typename T>
void expect_transposed(const std::vector<T>& got, const std::vector<T>& src,
                       std::uint64_t m, std::uint64_t n, const char* what) {
  const auto want = util::reference_transpose(std::span<const T>(src), m, n);
  const std::ptrdiff_t bad =
      util::first_mismatch(std::span<const T>(got), std::span<const T>(want));
  EXPECT_EQ(bad, -1) << what << ": first mismatch at linear index " << bad
                     << " for " << m << "x" << n;
}

TEST_P(TransposeShapes, ReferenceEngineC2R) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  options opts;
  opts.engine = engine_kind::reference;
  c2r(a.data(), m, n, opts);
  expect_transposed(a, src, m, n, "reference c2r");
}

TEST_P(TransposeShapes, BlockedEngineC2R) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  options opts;
  opts.engine = engine_kind::blocked;
  c2r(a.data(), m, n, opts);
  expect_transposed(a, src, m, n, "blocked c2r");
}

TEST_P(TransposeShapes, SkinnyOrFallbackC2R) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  options opts;
  opts.engine = engine_kind::skinny;  // planner falls back when unsuitable
  c2r(a.data(), m, n, opts);
  expect_transposed(a, src, m, n, "skinny c2r");
}

TEST_P(TransposeShapes, R2CWithSwappedExtentsTransposes) {
  // Theorem 2: r2c(data, n, m) transposes a row-major m x n array.
  const auto [m, n] = GetParam();
  for (const engine_kind eng :
       {engine_kind::reference, engine_kind::blocked, engine_kind::skinny}) {
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto src = a;
    options opts;
    opts.engine = eng;
    r2c(a.data(), n, m, opts);
    expect_transposed(a, src, m, n, "r2c swapped");
  }
}

TEST_P(TransposeShapes, R2CInvertsC2R) {
  const auto [m, n] = GetParam();
  for (const engine_kind eng :
       {engine_kind::reference, engine_kind::blocked, engine_kind::skinny}) {
    auto a = util::iota_matrix<std::uint64_t>(m, n);
    const auto src = a;
    options opts;
    opts.engine = eng;
    c2r(a.data(), m, n, opts);
    r2c(a.data(), m, n, opts);
    EXPECT_EQ(a, src);
  }
}

TEST_P(TransposeShapes, HeuristicTransposeRowMajor) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  transpose(a.data(), m, n);
  expect_transposed(a, src, m, n, "auto row-major");
}

TEST_P(TransposeShapes, TransposeTwiceIsIdentity) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  transpose(a.data(), m, n);
  transpose(a.data(), n, m);
  EXPECT_EQ(a, src);
}

TEST_P(TransposeShapes, ColumnMajorTranspose) {
  // A column-major m x n matrix: after transposition the buffer holds the
  // column-major n x m transpose, which equals the original row-major view.
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);  // col-major n x m view
  const auto src = a;
  // Interpret the buffer as a column-major m x n matrix B: B[i][j] =
  // a[i + j*m].  Its transpose, column-major, is Bt[j][i] at j + i*n.
  transpose(a.data(), m, n, storage_order::col_major);
  std::vector<std::uint32_t> want(src.size());
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      want[j + i * n] = src[i + j * m];
    }
  }
  EXPECT_EQ(a, want);
}

TEST_P(TransposeShapes, NoStrengthReduction) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  options opts;
  opts.strength_reduction = false;
  transpose(a.data(), m, n, storage_order::row_major, opts);
  expect_transposed(a, src, m, n, "plain division");
}

TEST_P(TransposeShapes, DoubleElements) {
  const auto [m, n] = GetParam();
  auto a = util::iota_matrix<double>(m, n);
  const auto src = a;
  transpose(a.data(), m, n);
  expect_transposed(a, src, m, n, "double");
}

TEST_P(TransposeShapes, SixteenByteStructElements) {
  const auto [m, n] = GetParam();
  std::vector<util::vec4f> a(m * n);
  for (std::size_t l = 0; l < a.size(); ++l) {
    a[l] = {float(l), float(l) + 0.25f, float(l) + 0.5f, float(l) + 0.75f};
  }
  const auto src = a;
  transpose(a.data(), m, n);
  expect_transposed(a, src, m, n, "vec4f");
}

TEST_P(TransposeShapes, SingleByteElements) {
  const auto [m, n] = GetParam();
  std::vector<std::uint8_t> a(m * n);
  for (std::size_t l = 0; l < a.size(); ++l) {
    a[l] = static_cast<std::uint8_t>(l * 131 + 17);
  }
  const auto src = a;
  transpose(a.data(), m, n);
  expect_transposed(a, src, m, n, "u8");
}

TEST_P(TransposeShapes, ForcedC2RAndR2CAgree) {
  const auto [m, n] = GetParam();
  auto via_c2r = util::iota_matrix<std::uint32_t>(m, n);
  auto via_r2c = via_c2r;
  options oc;
  oc.alg = options::algorithm::c2r;
  options orr;
  orr.alg = options::algorithm::r2c;
  transpose(via_c2r.data(), m, n, storage_order::row_major, oc);
  transpose(via_r2c.data(), m, n, storage_order::row_major, orr);
  EXPECT_EQ(via_c2r, via_r2c);
}

TEST_P(TransposeShapes, GatherBasedReferenceVariant) {
  // Section 4.2/5.1: the fully gather-based formulation (using d'^-1)
  // must produce the same permutation as the scatter-based Algorithm 1.
  const auto [m, n] = GetParam();
  if (m <= 1 || n <= 1) {
    GTEST_SKIP() << "degenerate shape handled before engine dispatch";
  }
  const transpose_math<fast_divmod> mm(m, n);
  detail::workspace<std::uint32_t> ws;
  ws.reserve(m, n, 16);
  auto scatter_form = util::iota_matrix<std::uint32_t>(m, n);
  auto gather_form = scatter_form;
  detail::c2r_reference(scatter_form.data(), mm, ws);
  detail::c2r_reference_gather(gather_form.data(), mm, ws);
  EXPECT_EQ(gather_form, scatter_form);
}

TEST_P(TransposeShapes, ExplicitThreadCounts) {
  // Thread-count overrides must not change results (load-balance claim:
  // rows/groups are independent).
  const auto [m, n] = GetParam();
  auto want = util::iota_matrix<std::uint32_t>(m, n);
  transpose(want.data(), m, n);
  for (int threads : {1, 2, 3}) {
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    options opts;
    opts.threads = threads;
    transpose(a.data(), m, n, storage_order::row_major, opts);
    ASSERT_EQ(a, want) << "threads=" << threads;
  }
}

TEST(Threading, OversubscribedThreadsShareNoWorkspace) {
  // Regression: requesting more OpenMP threads than hardware_threads()
  // once made two threads share a scratch workspace (the pool was sized
  // before the thread-count guard took effect).  Repeat to give the
  // interleaving a chance to manifest.
  const std::uint64_t m = 68;
  const std::uint64_t n = 249;
  auto want = util::iota_matrix<std::uint64_t>(m, n);
  options serial;
  serial.threads = 1;
  transpose(want.data(), m, n, storage_order::row_major, serial);
  for (int rep = 0; rep < 30; ++rep) {
    auto a = util::iota_matrix<std::uint64_t>(m, n);
    options opts;
    opts.threads = 4;  // deliberately above this host's core count
    opts.engine = engine_kind::blocked;
    transpose(a.data(), m, n, storage_order::row_major, opts);
    ASSERT_EQ(a, want) << "rep " << rep;
  }
}

// --- Theorem 6: work bound ------------------------------------------------

TEST(Complexity, ReferenceEngineTouchesAtMostSixPerElement) {
  for (auto [m, n] : {shape{30, 42}, shape{97, 89}, shape{64, 13},
                      shape{4, 8}, shape{128, 96}}) {
    const transpose_math<fast_divmod> mm(m, n);
    detail::workspace<std::uint32_t> ws;
    ws.reserve(m, n, 16);
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    detail::touch_counter tc;
    detail::c2r_reference(a.data(), mm, ws, &tc);
    EXPECT_LE(tc.reads, 3 * m * n) << m << "x" << n;
    EXPECT_LE(tc.writes, 3 * m * n) << m << "x" << n;

    detail::touch_counter tr;
    detail::r2c_reference(a.data(), mm, ws, &tr);
    EXPECT_LE(tr.reads, 3 * m * n) << m << "x" << n;
    EXPECT_LE(tr.writes, 3 * m * n) << m << "x" << n;
  }
}

TEST(Complexity, ScratchIsBoundedByMaxExtentPlusConstants) {
  options opts;
  const auto plan =
      make_plan(reinterpret_cast<void*>(0x1), 3000, 500,
                storage_order::row_major, opts, sizeof(double));
  EXPECT_LE(plan.scratch_elements(),
            3000 + (plan.block_width - 1) * plan.block_width +
                plan.block_width);
}

// --- AoS <-> SoA ------------------------------------------------------------

TEST(AosSoa, RoundTripAndFieldLayout) {
  inplace::util::xoshiro256 rng(7);
  for (int t = 0; t < 30; ++t) {
    const std::size_t fields = rng.uniform(2, 32);
    const std::size_t count = rng.uniform(2, 4000);
    std::vector<float> a(count * fields);
    for (std::size_t l = 0; l < a.size(); ++l) {
      a[l] = static_cast<float>(l);
    }
    const auto src = a;
    aos_to_soa(a.data(), count, fields);
    // Field f of structure s must now live at f*count + s.
    for (std::size_t s = 0; s < count; s += std::max<std::size_t>(1, count / 17)) {
      for (std::size_t f = 0; f < fields; ++f) {
        ASSERT_EQ(a[f * count + s], src[s * fields + f])
            << "struct " << s << " field " << f;
      }
    }
    soa_to_aos(a.data(), count, fields);
    ASSERT_EQ(a, src);
  }
}

// --- Overflow-prone shapes ---------------------------------------------------

TEST(OverflowShapes, ExtentPastSixteenBitsSingleByte) {
  // m > 2^16 with 1-byte elements: linear indices reach ~2^26 and the
  // strength-reduction divisors (m, n, mn-1) leave the exhaustively
  // tested small range.  Verified in place against the iota-mod-256
  // pattern, so the ~45 MB buffer is the only large allocation.
  const std::uint64_t m = 65537, n = 719;  // coprime: no pre-rotation
  std::vector<std::uint8_t> a(m * n);
  util::fill_iota(std::span<std::uint8_t>(a));
  transpose(a.data(), m, n);
  for (std::uint64_t i = 0; i < m; i += 97) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(a[j * m + i], static_cast<std::uint8_t>(i * n + j))
          << "(" << i << "," << j << ")";
    }
  }
  transpose(a.data(), n, m);  // round-trip back to iota
  for (std::uint64_t l = 0; l < m * n; l += 101) {
    ASSERT_EQ(a[l], static_cast<std::uint8_t>(l)) << "linear index " << l;
  }
}

TEST(OverflowShapes, LargeGcdShapePrerotatesAtScale) {
  // c = gcd(m, n) = 10 forces the Eq. 23 pre-rotation on a ~45 MB
  // buffer; mn - 1 = 46,803,399 stresses reciprocals far outside the
  // small-shape sweeps.
  const std::uint64_t m = 46340, n = 1010;
  std::vector<std::uint8_t> a(m * n);
  util::fill_iota(std::span<std::uint8_t>(a));
  options opts;
  opts.engine = engine_kind::blocked;
  c2r(a.data(), m, n, opts);
  for (std::uint64_t i = 0; i < m; i += 211) {
    for (std::uint64_t j = 0; j < n; j += 3) {
      ASSERT_EQ(a[j * m + i], static_cast<std::uint8_t>(i * n + j))
          << "(" << i << "," << j << ")";
    }
  }
  r2c(a.data(), m, n, opts);
  for (std::uint64_t l = 0; l < m * n; l += 127) {
    ASSERT_EQ(a[l], static_cast<std::uint8_t>(l)) << "linear index " << l;
  }
}

// --- Validation -------------------------------------------------------------

TEST(Validation, NullDataWithNonzeroExtentThrows) {
  EXPECT_THROW(transpose<int>(nullptr, 2, 3), error);
  EXPECT_THROW(c2r<int>(nullptr, 2, 3), error);
  EXPECT_THROW(r2c<int>(nullptr, 2, 3), error);
}

TEST(Validation, ZeroExtentIsANoOp) {
  EXPECT_NO_THROW(transpose<int>(nullptr, 0, 5));
  EXPECT_NO_THROW(transpose<int>(nullptr, 5, 0));
  int x = 42;
  EXPECT_NO_THROW(transpose(&x, 1, 1));
  EXPECT_EQ(x, 42);
}

TEST(Validation, ExtentOverflowThrows) {
  int dummy = 0;
  const auto big = std::size_t{1} << 40;
  EXPECT_THROW(transpose(&dummy, big, big), error);
}

TEST(Validation, FailedCallsLeaveBuffersUntouched) {
  // Argument validation happens before any element moves: a throwing
  // call must leave the data bit-identical (basic exception guarantee is
  // actually strong here).
  std::vector<int> a = {1, 2, 3, 4, 5, 6};
  const auto src = a;
  const auto huge = std::size_t{1} << 40;
  EXPECT_THROW(transpose(a.data(), huge, huge), error);
  EXPECT_EQ(a, src);
  EXPECT_THROW(c2r(a.data(), huge, huge), error);
  EXPECT_EQ(a, src);
}

TEST(Validation, PlanReportsHeuristicChoice) {
  int dummy = 0;
  options opts;
  auto tall = make_plan(&dummy, 100, 10, storage_order::row_major, opts,
                        sizeof(int));
  EXPECT_EQ(tall.dir, direction::c2r);
  EXPECT_EQ(tall.m, 100u);
  EXPECT_EQ(tall.n, 10u);
  auto wide = make_plan(&dummy, 10, 100, storage_order::row_major, opts,
                        sizeof(int));
  EXPECT_EQ(wide.dir, direction::r2c);
  EXPECT_EQ(wide.m, 100u);
  EXPECT_EQ(wide.n, 10u);
}

TEST(Validation, SkinnyPlanSelection) {
  int dummy = 0;
  options opts;
  auto narrow = make_plan(&dummy, 100000, 8, storage_order::row_major, opts,
                          sizeof(int));
  EXPECT_EQ(narrow.engine, engine_kind::skinny);
  auto square = make_plan(&dummy, 1000, 1000, storage_order::row_major, opts,
                          sizeof(int));
  EXPECT_EQ(square.engine, engine_kind::blocked);
}

// --- Blocked engine on page-strided rows -----------------------------------
//
// Rows of n * sizeof(T) >= 4 KiB put every sub-row of a column group on a
// new page, the layout of the column shuffles' and pre-rotations' fine
// sweeps out of cache.  With the default 256 B sub-rows the column
// shuffles' residuals reach w - 1 (w = 256 / sizeof(T)), so m from w to
// w + 10 runs sweeps with one to eleven unwrapped kernel rows ahead of
// the wrapped tail; gcd-rich n adds the pre-rotation.  The raw
// C2R and R2C of each m x n view run bit-exact against the reference
// engine, and R2C undoes C2R.

template <typename T>
void check_blocked_page_strided() {
  const std::uint64_t w = 256 / sizeof(T);
  const std::uint64_t row_elems = 4096 / sizeof(T);
  options ro;
  ro.engine = engine_kind::reference;
  options bo;
  bo.engine = engine_kind::blocked;
  for (const std::uint64_t n :
       {row_elems + 7, row_elems + 2 * w, row_elems * 3 / 2 + 6}) {
    for (std::uint64_t m = w; m <= w + 10; ++m) {
      const auto src = util::iota_matrix<T>(m, n);
      auto got = src;
      auto want = src;
      c2r(got.data(), m, n, bo);
      c2r(want.data(), m, n, ro);
      ASSERT_EQ(got, want) << sizeof(T) << "-byte c2r " << m << "x" << n;
      expect_transposed(got, src, m, n, "blocked c2r, page-strided rows");
      r2c(got.data(), m, n, bo);
      ASSERT_EQ(got, src) << sizeof(T) << "-byte round trip " << m << "x"
                          << n;
      got = src;
      want = src;
      r2c(got.data(), m, n, bo);
      r2c(want.data(), m, n, ro);
      ASSERT_EQ(got, want) << sizeof(T) << "-byte r2c " << m << "x" << n;
    }
  }
}

TEST(PageStridedBlocked, RoundTripsMatchReferenceU32) {
  check_blocked_page_strided<std::uint32_t>();
}

TEST(PageStridedBlocked, RoundTripsMatchReferenceU64) {
  check_blocked_page_strided<std::uint64_t>();
}

// --- Randomized cross-engine agreement --------------------------------------

TEST(Randomized, AllEnginesAgreeOnRandomShapes) {
  inplace::util::xoshiro256 rng(99);
  for (int t = 0; t < 60; ++t) {
    const std::uint64_t m = rng.uniform(1, 300);
    const std::uint64_t n = rng.uniform(1, 300);
    auto ref = util::iota_matrix<std::uint32_t>(m, n);
    const auto src = ref;
    options ro;
    ro.engine = engine_kind::reference;
    c2r(ref.data(), m, n, ro);

    auto blk = src;
    options bo;
    bo.engine = engine_kind::blocked;
    c2r(blk.data(), m, n, bo);
    ASSERT_EQ(blk, ref) << m << "x" << n;

    auto want =
        util::reference_transpose(std::span<const std::uint32_t>(src), m, n);
    ASSERT_EQ(ref, want) << m << "x" << n;
  }
}

}  // namespace
