// Tests for the register-tile staged AoS<->SoA converters
// (simd/vectorized.hpp): agreement with the scalar kernels for every
// field count in the dispatch table, tail handling for counts that are
// not lane multiples, round trips, and the fallback path.
//
// The second half sweeps the hot-path kernel dispatch layer
// (cpu/kernels/) at the transpose level: every available tier must be
// bit-exact against the out-of-place reference for every small shape and
// element width, including with non-temporal streaming forced on, and
// the INPLACE_FORCE_KERNEL_TIER override must steer planning.

#include "simd/vectorized.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;

class VectorizedFields : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(AllFieldCounts, VectorizedFields,
                         ::testing::Range(1u, 33u));

TEST_P(VectorizedFields, AosToSoaMatchesScalar) {
  const unsigned fields = GetParam();
  // Count deliberately not a multiple of the lane width (tail path).
  const std::size_t count = 16 * 13 + 7;
  std::vector<float> aos(count * fields);
  for (std::size_t l = 0; l < aos.size(); ++l) {
    aos[l] = static_cast<float>(l);
  }
  std::vector<float> got(aos.size());
  std::vector<float> want(aos.size());
  simd::aos_to_soa_vectorized(got.data(), aos.data(), count, fields);
  simd::aos_to_soa_direct(want.data(), aos.data(), count, fields);
  EXPECT_EQ(got, want);
}

TEST_P(VectorizedFields, SoaToAosMatchesScalar) {
  const unsigned fields = GetParam();
  const std::size_t count = 16 * 9 + 3;
  std::vector<std::uint32_t> soa(count * fields);
  for (std::size_t l = 0; l < soa.size(); ++l) {
    soa[l] = static_cast<std::uint32_t>(l * 2654435761u);
  }
  std::vector<std::uint32_t> got(soa.size());
  std::vector<std::uint32_t> want(soa.size());
  simd::soa_to_aos_vectorized(got.data(), soa.data(), count, fields);
  simd::soa_to_aos_direct(want.data(), soa.data(), count, fields);
  EXPECT_EQ(got, want);
}

TEST_P(VectorizedFields, RoundTrip) {
  const unsigned fields = GetParam();
  const std::size_t count = 16 * 5 + 11;
  std::vector<double> aos(count * fields);
  for (std::size_t l = 0; l < aos.size(); ++l) {
    aos[l] = static_cast<double>(l) * 0.5;
  }
  std::vector<double> soa(aos.size());
  std::vector<double> back(aos.size());
  simd::aos_to_soa_vectorized(soa.data(), aos.data(), count, fields);
  simd::soa_to_aos_vectorized(back.data(), soa.data(), count, fields);
  EXPECT_EQ(back, aos);
}

TEST(Vectorized, LargeFieldCountsFallBack) {
  const std::size_t fields = 40;  // > vectorized_max_fields
  const std::size_t count = 100;
  std::vector<float> aos(count * fields, 1.5f);
  for (std::size_t l = 0; l < aos.size(); ++l) {
    aos[l] = static_cast<float>(l);
  }
  std::vector<float> got(aos.size());
  std::vector<float> want(aos.size());
  simd::aos_to_soa_vectorized(got.data(), aos.data(), count, fields);
  simd::aos_to_soa_direct(want.data(), aos.data(), count, fields);
  EXPECT_EQ(got, want);
}

TEST(Vectorized, DegenerateArgumentsAreNoOps) {
  float x = 3.0f;
  EXPECT_NO_THROW(simd::aos_to_soa_vectorized(&x, &x, 0, 4));
  EXPECT_NO_THROW(simd::soa_to_aos_vectorized(&x, &x, 5, 0));
}

TEST(Vectorized, TinyCountsUseOnlyTheTail) {
  for (std::size_t count : {1u, 2u, 15u}) {  // below one lane block
    const unsigned fields = 5;
    std::vector<int> aos(count * fields);
    for (std::size_t l = 0; l < aos.size(); ++l) {
      aos[l] = static_cast<int>(l);
    }
    std::vector<int> got(aos.size());
    std::vector<int> want(aos.size());
    simd::aos_to_soa_vectorized(got.data(), aos.data(), count, fields);
    simd::aos_to_soa_direct(want.data(), aos.data(), count, fields);
    ASSERT_EQ(got, want) << count;
  }
}

TEST(Vectorized, RandomizedAgainstScalar) {
  util::xoshiro256 rng(88);
  for (int t = 0; t < 20; ++t) {
    const std::size_t fields = rng.uniform(2, 33);
    const std::size_t count = rng.uniform(1, 5000);
    std::vector<std::uint16_t> aos(count * fields);
    for (auto& v : aos) {
      v = static_cast<std::uint16_t>(rng());
    }
    std::vector<std::uint16_t> got(aos.size());
    std::vector<std::uint16_t> want(aos.size());
    simd::aos_to_soa_vectorized(got.data(), aos.data(), count, fields);
    simd::aos_to_soa_direct(want.data(), aos.data(), count, fields);
    ASSERT_EQ(got, want) << count << "x" << fields;
  }
}

// --- dispatch-tier transpose sweep (cpu/kernels/) ---------------------------

using kernels::tier;

/// Restores (or removes) an environment variable when the test exits.
class env_guard {
 public:
  env_guard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~env_guard() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  env_guard(const env_guard&) = delete;
  env_guard& operator=(const env_guard&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

std::vector<tier> available_tiers() {
  std::vector<tier> out;
  for (tier t : {tier::scalar, tier::avx2, tier::avx512, tier::neon}) {
    if (kernels::tier_available(t)) {
      out.push_back(t);
    }
  }
  return out;
}

template <typename T>
void fill_unique(std::vector<T>& v) {
  for (std::size_t l = 0; l < v.size(); ++l) {
    v[l] = static_cast<T>(l);
  }
}

void fill_unique(std::vector<util::vec4f>& v) {
  for (std::size_t l = 0; l < v.size(); ++l) {
    const auto f = static_cast<float>(l);
    v[l] = util::vec4f{f, f + 0.25f, f + 0.5f, f + 0.75f};
  }
}

/// Transposes every m x n with m, n <= 64 through every available
/// kernel tier, in both planning directions, and demands bit-exact
/// agreement with the out-of-place reference.  Exhaustive by design: the
/// dispatch boundaries (segment length vs. row_pass_min_segment, vector
/// width vs. tail, gather-capable vs. byte-width elements) all fall
/// inside this range.
template <typename T>
void exhaustive_tier_sweep() {
  // The row-pass affine kernels normally wait for the scratch line to
  // spill L2; force them on so the sweep exercises that path too.
  const env_guard row_guard("INPLACE_ROW_KERNEL_MIN_LINE", "0");
  for (const tier t : available_tiers()) {
    for (const options::algorithm alg :
         {options::algorithm::c2r, options::algorithm::r2c}) {
      options opts;
      opts.alg = alg;
      opts.kernel = t;
      for (std::size_t m = 1; m <= 64; ++m) {
        for (std::size_t n = 1; n <= 64; ++n) {
          std::vector<T> a(m * n);
          fill_unique(a);
          const std::vector<T> want = util::reference_transpose(
              std::span<const T>(a), m, n);
          transposer<T> tr(m, n, storage_order::row_major, opts);
          ASSERT_EQ(tr.plan().ktier, t)
              << "plan did not record the forced tier for " << m << "x" << n;
          tr(a.data());
          ASSERT_EQ(-1, util::first_mismatch(std::span<const T>(a),
                                             std::span<const T>(want)))
              << kernels::tier_name(t) << " "
              << (alg == options::algorithm::c2r ? "c2r" : "r2c") << " "
              << m << "x" << n << " elem=" << sizeof(T);
        }
      }
    }
  }
}

TEST(KernelTierSweep, Width1) { exhaustive_tier_sweep<std::uint8_t>(); }
TEST(KernelTierSweep, Width2) { exhaustive_tier_sweep<std::uint16_t>(); }
TEST(KernelTierSweep, Width4) { exhaustive_tier_sweep<std::uint32_t>(); }
TEST(KernelTierSweep, Width8) { exhaustive_tier_sweep<std::uint64_t>(); }
TEST(KernelTierSweep, Width16) { exhaustive_tier_sweep<util::vec4f>(); }

/// Forcing the streaming threshold to zero makes every plan take the
/// non-temporal store paths (copy-backs, coarse rotation moves, fine
/// rotation gathers), which normally need a >L3 working set; shapes here
/// are chosen to hit skinny and blocked engines, gcd > 1 and coprime.
template <typename T>
void streaming_sweep() {
  const env_guard guard("INPLACE_NT_THRESHOLD", "0");
  const env_guard row_guard("INPLACE_ROW_KERNEL_MIN_LINE", "0");
  const struct {
    std::size_t m, n;
  } shapes[] = {{97, 89}, {128, 96}, {211, 199}, {64, 64},
                {63, 65}, {3, 500}, {500, 3},   {256, 64}};
  for (const tier t : available_tiers()) {
    options opts;
    opts.kernel = t;
    for (const auto& s : shapes) {
      std::vector<T> a(s.m * s.n);
      fill_unique(a);
      const std::vector<T> want = util::reference_transpose(
          std::span<const T>(a), s.m, s.n);
      transposer<T> tr(s.m, s.n, storage_order::row_major, opts);
      if (t == tier::avx2 || t == tier::avx512) {
        ASSERT_TRUE(tr.plan().streaming_stores)
            << "zero threshold must enable streaming on "
            << kernels::tier_name(t);
      } else {
        ASSERT_FALSE(tr.plan().streaming_stores)
            << kernels::tier_name(t) << " has no NT stores";
      }
      tr(a.data());
      ASSERT_EQ(-1, util::first_mismatch(std::span<const T>(a),
                                         std::span<const T>(want)))
          << kernels::tier_name(t) << " streaming " << s.m << "x" << s.n
          << " elem=" << sizeof(T);
    }
  }
}

TEST(KernelTierSweep, StreamingStoresForcedOnWidth4) {
  streaming_sweep<std::uint32_t>();
}
TEST(KernelTierSweep, StreamingStoresForcedOnWidth8) {
  streaming_sweep<std::uint64_t>();
}
TEST(KernelTierSweep, StreamingStoresForcedOnWidth16) {
  streaming_sweep<util::vec4f>();
}

/// Page-scale column groups (options::block_bytes = 2048, the width the
/// planner derives for large blocked plans) on small coprime and
/// gcd-rich shapes, through every available tier forced by
/// INPLACE_FORCE_KERNEL_TIER, in both directions: several groups per
/// matrix, a ragged last group, and fine passes whose residual windows
/// span hundreds of rows, without a GiB buffer.
template <typename T>
void page_scale_sweep() {
  const struct {
    std::size_t m, n;
  } shapes[] = {{601, 530}, {530, 601}, {780, 660}, {660, 780}, {1040, 88}};
  for (const tier t : available_tiers()) {
    const env_guard force("INPLACE_FORCE_KERNEL_TIER", kernels::tier_name(t));
    for (const options::algorithm alg :
         {options::algorithm::c2r, options::algorithm::r2c}) {
      options opts;
      opts.alg = alg;
      opts.engine = engine_kind::blocked;
      opts.block_bytes = 2048;
      for (const auto& s : shapes) {
        std::vector<T> a(s.m * s.n);
        fill_unique(a);
        const std::vector<T> want = util::reference_transpose(
            std::span<const T>(a), s.m, s.n);
        transposer<T> tr(s.m, s.n, storage_order::row_major, opts);
        ASSERT_EQ(tr.plan().ktier, t);
        ASSERT_EQ(tr.plan().block_width,
                  std::min<std::uint64_t>(2048 / sizeof(T), tr.plan().n));
        tr(a.data());
        ASSERT_EQ(-1, util::first_mismatch(std::span<const T>(a),
                                           std::span<const T>(want)))
            << kernels::tier_name(t) << " "
            << (alg == options::algorithm::c2r ? "c2r" : "r2c") << " "
            << s.m << "x" << s.n << " elem=" << sizeof(T);
      }
    }
  }
}

TEST(KernelTierSweep, PageScaleGroupsWidth2) {
  page_scale_sweep<std::uint16_t>();
}
TEST(KernelTierSweep, PageScaleGroupsWidth4) {
  page_scale_sweep<std::uint32_t>();
}
TEST(KernelTierSweep, PageScaleGroupsWidth8) {
  page_scale_sweep<std::uint64_t>();
}

TEST(KernelTierSweep, EnvOverrideSteersPlanning) {
  // Fresh transposer instances (not the default_context cache): the env
  // override applies at plan time and is deliberately not part of the
  // context cache key, so cached plans must not be consulted here.
  const std::size_t m = 96;
  const std::size_t n = 80;
  {
    const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "scalar");
    options opts;  // kernel stays automatic; the env must win
    transposer<std::uint32_t> tr(m, n, storage_order::row_major, opts);
    EXPECT_EQ(tr.plan().ktier, tier::scalar);
    std::vector<std::uint32_t> a(m * n);
    fill_unique(a);
    const auto want =
        util::reference_transpose(std::span<const std::uint32_t>(a), m, n);
    tr(a.data());
    EXPECT_EQ(-1, util::first_mismatch(std::span<const std::uint32_t>(a),
                                       std::span<const std::uint32_t>(want)));
  }
  {
    const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "native");
    options opts;
    opts.kernel = tier::scalar;  // the env overrides even explicit requests
    transposer<std::uint32_t> tr(m, n, storage_order::row_major, opts);
    EXPECT_EQ(tr.plan().ktier, kernels::native_tier());
  }
  {
    const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "not-an-isa");
    options opts;
    opts.kernel = tier::scalar;
    transposer<std::uint32_t> tr(m, n, storage_order::row_major, opts);
    EXPECT_EQ(tr.plan().ktier, tier::scalar) << "unknown values are ignored";
  }
  {
    // Bare "inreg": native tier plus the forced in-register tile path.
    // 96x8 f32 is tile-eligible on every SIMD tier (96 = 8*12 = 16*6,
    // n = 8 <= max_regs); on a scalar-only host no tier implements the
    // tile and the plan must quietly stay un-tiled.
    const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "inreg");
    options opts;
    opts.kernel = tier::scalar;  // env overrides explicit requests
    transposer<std::uint32_t> tr(96, 8, storage_order::row_major, opts);
    EXPECT_EQ(tr.plan().ktier, kernels::native_tier());
    const auto& ks = kernels::set_for(tr.plan().ktier);
    if (kernels::tile_lanes<std::uint32_t>(ks) >= 2) {
      EXPECT_EQ(tr.plan().tile_block, kernels::tile_lanes<std::uint32_t>(ks));
    } else {
      EXPECT_EQ(tr.plan().tile_block, 0u);
    }
  }
}

// --- forced in-register tile sweep (cpu/kernels/tile_inreg_*) ---------------

/// Mirror of plan.cpp's tile-eligibility gate with the profitability
/// condition dropped (exactly what a forced "<tier>-inreg" plan uses):
/// skinny engine resolution, 4/8-byte elements, a tier that implements
/// the tile at this width, lane-divisible m, and n within one register
/// file.  Keeping the predicate in sync with the planner is the point —
/// the sweep asserts engagement *exactly* where the gate says.
template <typename T>
bool tile_gate_forced(tier t, std::size_t m, std::size_t n) {
  if (sizeof(T) != 4 && sizeof(T) != 8) {
    return false;
  }
  if (n > skinny_col_limit || m <= n) {
    return false;  // automatic engine resolution picks blocked
  }
  const kernels::kernel_set& ks = kernels::set_for(t);
  const std::size_t lanes = kernels::tile_lanes<T>(ks);
  const std::size_t max_regs = kernels::tile_max_regs<T>(ks);
  return lanes >= 2 && n >= 2 && n <= max_regs && m % lanes == 0;
}

/// Transposes every m x n with m, n <= 64 under INPLACE_FORCE_KERNEL_TIER
/// = "<tier>-inreg" for every available tier: the plan must engage the
/// in-register tile exactly on the mirrored gate predicate, and every
/// shape — tiled or not — must stay bit-exact against the out-of-place
/// reference in both planning directions.
template <typename T>
void forced_inreg_sweep() {
  for (const tier t : available_tiers()) {
    const std::string forced = std::string(kernels::tier_name(t)) + "-inreg";
    const env_guard guard("INPLACE_FORCE_KERNEL_TIER", forced.c_str());
    for (const options::algorithm alg :
         {options::algorithm::c2r, options::algorithm::r2c}) {
      options opts;
      opts.alg = alg;
      for (std::size_t m = 1; m <= 64; ++m) {
        for (std::size_t n = 1; n <= 64; ++n) {
          std::vector<T> a(m * n);
          fill_unique(a);
          const std::vector<T> want =
              util::reference_transpose(std::span<const T>(a), m, n);
          transposer<T> tr(m, n, storage_order::row_major, opts);
          ASSERT_EQ(tr.plan().ktier, t)
              << forced << " did not pin the tier for " << m << "x" << n;
          // R2C plans the dual problem with swapped extents (Theorem 2);
          // the gate sees the directed shape, so mirror it on that.
          const bool c2r = alg == options::algorithm::c2r;
          const bool want_tile =
              tile_gate_forced<T>(t, c2r ? m : n, c2r ? n : m);
          ASSERT_EQ(tr.plan().tile_block != 0, want_tile)
              << forced << " tile engagement mismatch at " << m << "x" << n
              << " elem=" << sizeof(T);
          tr(a.data());
          ASSERT_EQ(-1, util::first_mismatch(std::span<const T>(a),
                                             std::span<const T>(want)))
              << forced << " "
              << (alg == options::algorithm::c2r ? "c2r" : "r2c") << " "
              << m << "x" << n << " elem=" << sizeof(T)
              << (want_tile ? " (tiled)" : " (untiled)");
        }
      }
    }
  }
}

TEST(KernelTierSweep, ForcedInRegisterWidth4) {
  forced_inreg_sweep<std::uint32_t>();
}
TEST(KernelTierSweep, ForcedInRegisterWidth8) {
  forced_inreg_sweep<std::uint64_t>();
}

}  // namespace
