// Unit tests for the hot-path kernel layer (cpu/kernels/): every tier
// compiled into this binary must implement the kernel_set contract
// bit-exactly (the portable loops are the executable specification), the
// tier detection/resolution chain must degrade cleanly and honor the
// INPLACE_FORCE_KERNEL_TIER override, the cache probe and streaming
// threshold must behave, and the workspace scratch must satisfy the
// 64-byte alignment contract the kernels rely on (regression: the pool
// used to hand out unaligned lines).

#include "cpu/kernels/kernel_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/permute.hpp"
#include "cpu/engine_blocked.hpp"
#include "util/aligned.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;
using kernels::kernel_set;
using kernels::tier;

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
  }
  env_guard(const env_guard&) = delete;
  env_guard& operator=(const env_guard&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

class KernelTiers : public ::testing::TestWithParam<tier> {
 protected:
  void SetUp() override {
    if (!kernels::tier_available(GetParam())) {
      GTEST_SKIP() << "tier " << kernels::tier_name(GetParam())
                   << " not available on this machine/build";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(AllTiers, KernelTiers,
                         ::testing::Values(tier::scalar, tier::avx2,
                                           tier::avx512, tier::neon),
                         [](const auto& info) {
                           return kernels::tier_name(info.param);
                         });

// --- dispatch / detection ---------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernels::tier_available(tier::scalar));
  EXPECT_EQ(kernels::set_for(tier::scalar).t, tier::scalar);
}

TEST(KernelDispatch, NativeTierIsAvailableAndConcrete) {
  const tier native = kernels::native_tier();
  EXPECT_NE(native, tier::automatic);
  EXPECT_TRUE(kernels::tier_available(native));
}

TEST(KernelDispatch, ResolveAlwaysYieldsAnAvailableTier) {
  for (tier t : {tier::automatic, tier::scalar, tier::avx2, tier::avx512,
                 tier::neon}) {
    const tier r = kernels::resolve_tier(t);
    EXPECT_NE(r, tier::automatic) << kernels::tier_name(t);
    EXPECT_TRUE(kernels::tier_available(r)) << kernels::tier_name(t);
    // set_for must hand back the vtable of exactly the resolved tier.
    EXPECT_EQ(kernels::set_for(r).t, r) << kernels::tier_name(t);
  }
}

TEST(KernelDispatch, AutomaticResolvesToNative) {
  // Shield from an inherited forcing (the sanitizer matrix exports it).
  const env_guard guard("INPLACE_FORCE_KERNEL_TIER", nullptr);
  EXPECT_EQ(kernels::resolve_tier(tier::automatic), kernels::native_tier());
}

TEST(KernelDispatch, UnavailableTierDegradesDownItsFamily) {
  if (!kernels::tier_available(tier::avx512)) {
    const tier r = kernels::resolve_tier(tier::avx512);
    EXPECT_TRUE(r == tier::avx2 || r == tier::scalar);
  }
  if (!kernels::tier_available(tier::neon)) {
    EXPECT_EQ(kernels::resolve_tier(tier::neon), tier::scalar);
  }
}

TEST(KernelDispatch, EnvOverrideForcesScalar) {
  const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "scalar");
  EXPECT_EQ(kernels::resolve_tier(tier::automatic), tier::scalar);
  // The override wins even over an explicit vector request.
  EXPECT_EQ(kernels::resolve_tier(tier::avx512), tier::scalar);
}

TEST(KernelDispatch, EnvOverrideNativeAliasesAutomatic) {
  const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "native");
  EXPECT_EQ(kernels::resolve_tier(tier::scalar), kernels::native_tier());
}

TEST(KernelDispatch, EnvOverrideUnknownValueIsIgnored) {
  const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "pentium-mmx");
  EXPECT_EQ(kernels::resolve_tier(tier::scalar), tier::scalar);
  EXPECT_EQ(kernels::resolve_tier(tier::automatic), kernels::native_tier());
}

TEST(KernelDispatch, UnknownEnvValueWarnsOncePerDistinctValue) {
  // Regression: a typo'd INPLACE_FORCE_KERNEL_TIER used to be dropped in
  // complete silence, so the user benched the wrong tier without a clue.
  // The resolver now warns on stderr — once per distinct value, not per
  // plan, and a subsequent different typo gets its own warning instead
  // of riding the first one's suppression.
  const env_guard guard("INPLACE_FORCE_KERNEL_TIER", "avx1024");
  testing::internal::CaptureStderr();
  (void)kernels::resolve_tier(tier::automatic);
  (void)kernels::resolve_tier(tier::scalar);  // same value: no second line
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("avx1024"), std::string::npos) << err;
  EXPECT_EQ(err.find("avx1024"), err.rfind("avx1024")) << err;

  const env_guard second("INPLACE_FORCE_KERNEL_TIER", "sse9");
  testing::internal::CaptureStderr();
  (void)kernels::resolve_tier(tier::automatic);
  (void)kernels::resolve_tier(tier::automatic);
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("sse9"), std::string::npos) << err;
  EXPECT_EQ(err.find("sse9"), err.rfind("sse9")) << err;

  // Valid values never warn.
  const env_guard third("INPLACE_FORCE_KERNEL_TIER", "scalar");
  testing::internal::CaptureStderr();
  (void)kernels::resolve_tier(tier::automatic);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// --- cache probe / streaming threshold --------------------------------------

TEST(KernelCaches, ProbedSizesAreSane) {
  const kernels::cache_sizes& cs = kernels::probed_caches();
  EXPECT_GT(cs.l1_bytes, 0u);
  EXPECT_GT(cs.l2_bytes, 0u);
  EXPECT_GE(cs.l3_bytes, cs.l2_bytes);  // normalized by the probe
}

TEST(KernelCaches, StreamingThresholdDefaultsToL3) {
  ::unsetenv("INPLACE_NT_THRESHOLD");
  EXPECT_EQ(kernels::streaming_threshold(),
            kernels::probed_caches().l3_bytes);
}

TEST(KernelCaches, StreamingThresholdEnvOverride) {
  const env_guard guard("INPLACE_NT_THRESHOLD", "4096");
  EXPECT_EQ(kernels::streaming_threshold(), 4096u);
}

TEST(KernelCaches, StreamingThresholdIgnoresGarbage) {
  const env_guard guard("INPLACE_NT_THRESHOLD", "lots");
  EXPECT_EQ(kernels::streaming_threshold(),
            kernels::probed_caches().l3_bytes);
}

TEST(KernelCaches, RowKernelMinLineDefaultsToL2) {
  ::unsetenv("INPLACE_ROW_KERNEL_MIN_LINE");
  EXPECT_EQ(kernels::row_kernel_min_line_bytes(),
            kernels::probed_caches().l2_bytes);
}

TEST(KernelCaches, RowKernelMinLineEnvOverride) {
  const env_guard guard("INPLACE_ROW_KERNEL_MIN_LINE", "0");
  EXPECT_EQ(kernels::row_kernel_min_line_bytes(), 0u);
}

TEST(KernelCaches, RowKernelMinLineIgnoresGarbage) {
  const env_guard guard("INPLACE_ROW_KERNEL_MIN_LINE", "big");
  EXPECT_EQ(kernels::row_kernel_min_line_bytes(),
            kernels::probed_caches().l2_bytes);
}

// Regression (strict env parsing): strtoull's lenient grammar used to
// accept these silently — "-1" negates and wraps to ULLONG_MAX, "12kb"
// parses its digit prefix, overflow saturates with errno unchecked.
// Every one must now fall back to the probed cache default.
TEST(KernelCaches, StreamingThresholdRejectsPartialAndWrappingValues) {
  const struct {
    const char* value;
    const char* why;
  } rejected[] = {
      {"-1", "negative wraps through strtoull"},
      {"+1", "explicit sign"},
      {"12kb", "trailing unit suffix"},
      {"1e9", "scientific notation"},
      {" 12", "leading whitespace"},
      {"12 ", "trailing whitespace"},
      {"0x10", "hex prefix"},
      {"18446744073709551616", "overflows uint64 (ERANGE)"},
      {"99999999999999999999999999", "far past ERANGE"},
  };
  for (const auto& r : rejected) {
    const env_guard guard("INPLACE_NT_THRESHOLD", r.value);
    EXPECT_EQ(kernels::streaming_threshold(),
              kernels::probed_caches().l3_bytes)
        << "accepted '" << r.value << "' (" << r.why << ")";
  }
  // The strict grammar still takes plain digit strings, zero included.
  {
    const env_guard guard("INPLACE_NT_THRESHOLD", "0");
    EXPECT_EQ(kernels::streaming_threshold(), 0u);
  }
  {
    const env_guard guard("INPLACE_NT_THRESHOLD", "4096");
    EXPECT_EQ(kernels::streaming_threshold(), 4096u);
  }
}

TEST(KernelCaches, RowKernelMinLineRejectsPartialAndWrappingValues) {
  for (const char* value :
       {"-1", "64k", "1_000", "18446744073709551616", "12.5"}) {
    const env_guard guard("INPLACE_ROW_KERNEL_MIN_LINE", value);
    EXPECT_EQ(kernels::row_kernel_min_line_bytes(),
              kernels::probed_caches().l2_bytes)
        << "accepted '" << value << "'";
  }
  const env_guard guard("INPLACE_ROW_KERNEL_MIN_LINE", "32768");
  EXPECT_EQ(kernels::row_kernel_min_line_bytes(), 32768u);
}

TEST(KernelCaches, StreamingProfitability) {
  const env_guard guard("INPLACE_NT_THRESHOLD", "1024");
  // The scalar/neon tiers have no NT stores: never profitable.
  EXPECT_FALSE(kernels::streaming_profitable(1 << 20, tier::scalar));
  EXPECT_FALSE(kernels::streaming_profitable(1 << 20, tier::neon));
  // The x86 vector tiers stream iff the working set crosses the threshold.
  for (tier t : {tier::avx2, tier::avx512}) {
    EXPECT_FALSE(kernels::streaming_profitable(512, t));
    EXPECT_TRUE(kernels::streaming_profitable(4096, t));
  }
}

// --- contiguous copies / streaming stores -----------------------------------

TEST_P(KernelTiers, CopyAndStreamAreExactAtEverySizeAndMisalignment) {
  const kernel_set& ks = kernels::set_for(GetParam());
  util::xoshiro256 rng(1234);
  // Sizes straddling the head/vector/tail split points, at byte-level
  // destination misalignments (the NT path must peel to alignment).
  const std::size_t sizes[] = {0,  1,  3,   31,  32,  33,  63,  64,
                               65, 96, 127, 128, 192, 255, 1024, 4093};
  for (const std::size_t bytes : sizes) {
    for (const std::size_t mis : {0u, 1u, 4u, 8u, 24u, 60u}) {
      util::aligned_vector<unsigned char> src(bytes + mis + 64);
      util::aligned_vector<unsigned char> dst(bytes + mis + 64, 0xAB);
      util::aligned_vector<unsigned char> want(bytes + mis + 64, 0xAB);
      for (auto& b : src) {
        b = static_cast<unsigned char>(rng());
      }
      std::memcpy(want.data() + mis, src.data() + mis, bytes);
      ks.copy(dst.data() + mis, src.data() + mis, bytes);
      ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), dst.size()))
          << "copy " << bytes << "B at +" << mis;
      std::fill(dst.begin(), dst.end(), static_cast<unsigned char>(0xAB));
      ks.stream(dst.data() + mis, src.data() + mis, bytes);
      ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), dst.size()))
          << "stream " << bytes << "B at +" << mis;
      std::fill(dst.begin(), dst.end(), static_cast<unsigned char>(0xAB));
      ks.stream_subrow(dst.data() + mis, src.data() + mis, bytes);
      ks.fence();
      ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), dst.size()))
          << "stream_subrow " << bytes << "B at +" << mis;
    }
  }
}

// --- affine gather / scatter ------------------------------------------------

/// Affine parameter sets covering: tiny counts (below the vector
/// fallback), counts that are not lane multiples, step 0 / 1 / large,
/// wrap-heavy streams (step close to mod), and mod near the u32 hardware
/// gather limit.
struct affine_case {
  std::size_t count;
  std::uint64_t start;
  std::uint64_t step;
  std::uint64_t mod;
};

const affine_case kAffineCases[] = {
    {1, 0, 0, 5},        {7, 3, 2, 11},       {16, 0, 1, 16},
    {31, 5, 7, 37},      {32, 0, 17, 61},     {33, 60, 59, 61},
    {64, 1, 40, 67},     {100, 99, 98, 101},  {128, 0, 64, 129},
    {257, 11, 199, 509}, {500, 0, 251, 503},  {1000, 999, 3, 1009},
    {1024, 7, 511, 1031}, {4096, 1, 4095, 4099},
};

TEST_P(KernelTiers, GatherAffineU32MatchesPortable) {
  const kernel_set& ks = kernels::set_for(GetParam());
  for (const affine_case& c : kAffineCases) {
    util::aligned_vector<std::uint32_t> src(c.mod);
    std::iota(src.begin(), src.end(), 0x10000u);
    util::aligned_vector<std::uint32_t> got(c.count, 0xDEADu);
    std::vector<std::uint32_t> want(c.count);
    std::uint64_t idx = c.start;
    for (std::size_t j = 0; j < c.count; ++j) {
      want[j] = src[static_cast<std::size_t>(idx)];
      idx += c.step;
      if (idx >= c.mod) {
        idx -= c.mod;
      }
    }
    ks.gather_affine_u32(
        reinterpret_cast<kernels::u32lane*>(got.data()),
        reinterpret_cast<const kernels::u32lane*>(src.data()), c.count,
        c.start, c.step, c.mod);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "count=" << c.count << " start=" << c.start << " step=" << c.step
        << " mod=" << c.mod;
  }
}

TEST_P(KernelTiers, GatherAffineU64MatchesPortable) {
  const kernel_set& ks = kernels::set_for(GetParam());
  for (const affine_case& c : kAffineCases) {
    util::aligned_vector<std::uint64_t> src(c.mod);
    std::iota(src.begin(), src.end(), 0x100000000ull);
    util::aligned_vector<std::uint64_t> got(c.count, 0xDEADull);
    std::vector<std::uint64_t> want(c.count);
    std::uint64_t idx = c.start;
    for (std::size_t j = 0; j < c.count; ++j) {
      want[j] = src[static_cast<std::size_t>(idx)];
      idx += c.step;
      if (idx >= c.mod) {
        idx -= c.mod;
      }
    }
    ks.gather_affine_u64(
        reinterpret_cast<kernels::u64lane*>(got.data()),
        reinterpret_cast<const kernels::u64lane*>(src.data()), c.count,
        c.start, c.step, c.mod);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "count=" << c.count << " start=" << c.start << " step=" << c.step
        << " mod=" << c.mod;
  }
}

TEST_P(KernelTiers, ScatterAffineU32MatchesPortable) {
  const kernel_set& ks = kernels::set_for(GetParam());
  for (const affine_case& c : kAffineCases) {
    if (c.count > c.mod) {
      continue;  // a scatter stream longer than mod would collide
    }
    util::aligned_vector<std::uint32_t> src(c.count);
    std::iota(src.begin(), src.end(), 7u);
    util::aligned_vector<std::uint32_t> got(c.mod, 0xAAAAu);
    std::vector<std::uint32_t> want(c.mod, 0xAAAAu);
    std::uint64_t idx = c.start;
    for (std::size_t j = 0; j < c.count; ++j) {
      want[static_cast<std::size_t>(idx)] = src[j];
      idx += c.step;
      if (idx >= c.mod) {
        idx -= c.mod;
      }
    }
    ks.scatter_affine_u32(
        reinterpret_cast<kernels::u32lane*>(got.data()),
        reinterpret_cast<const kernels::u32lane*>(src.data()), c.count,
        c.start, c.step, c.mod);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "count=" << c.count << " start=" << c.start << " step=" << c.step
        << " mod=" << c.mod;
  }
}

TEST_P(KernelTiers, ScatterAffineU64MatchesPortable) {
  const kernel_set& ks = kernels::set_for(GetParam());
  for (const affine_case& c : kAffineCases) {
    if (c.count > c.mod) {
      continue;
    }
    util::aligned_vector<std::uint64_t> src(c.count);
    std::iota(src.begin(), src.end(), 7ull);
    util::aligned_vector<std::uint64_t> got(c.mod, 0xBBBBull);
    std::vector<std::uint64_t> want(c.mod, 0xBBBBull);
    std::uint64_t idx = c.start;
    for (std::size_t j = 0; j < c.count; ++j) {
      want[static_cast<std::size_t>(idx)] = src[j];
      idx += c.step;
      if (idx >= c.mod) {
        idx -= c.mod;
      }
    }
    ks.scatter_affine_u64(
        reinterpret_cast<kernels::u64lane*>(got.data()),
        reinterpret_cast<const kernels::u64lane*>(src.data()), c.count,
        c.start, c.step, c.mod);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "count=" << c.count << " start=" << c.start << " step=" << c.step
        << " mod=" << c.mod;
  }
}

TEST_P(KernelTiers, GatherAffineU32HugeModFallsBackCorrectly) {
  // mod >= 2^31 must take the portable path (hardware gathers sign-extend
  // 32-bit indices); the contract is still "correct answer", just not
  // vectorized.  Use a small count with indices near `start` so the
  // buffer stays allocatable: mod is a *modulus*, not a buffer size, so
  // fake the source with a window around the touched range.
  const kernel_set& ks = kernels::set_for(GetParam());
  const std::uint64_t mod = (std::uint64_t{1} << 31) + 13;
  const std::size_t count = 64;
  const std::uint64_t step = 3;  // touched indices: [5, 5 + 63*3]
  util::aligned_vector<std::uint32_t> src(256);
  std::iota(src.begin(), src.end(), 0u);
  util::aligned_vector<std::uint32_t> got(count, 0u);
  ks.gather_affine_u32(reinterpret_cast<kernels::u32lane*>(got.data()),
                       reinterpret_cast<const kernels::u32lane*>(src.data()),
                       count, 5, step, mod);
  for (std::size_t j = 0; j < count; ++j) {
    ASSERT_EQ(got[j], src[5 + j * step]) << j;
  }
}

// --- indexed gather ---------------------------------------------------------

TEST_P(KernelTiers, GatherIndexMatchesPortableOutOfPlace) {
  const kernel_set& ks = kernels::set_for(GetParam());
  util::xoshiro256 rng(99);
  for (const std::size_t count : {1u, 4u, 7u, 16u, 33u, 256u, 1000u}) {
    util::aligned_vector<std::uint32_t> src32(count * 3);
    util::aligned_vector<std::uint64_t> src64(count * 3);
    for (std::size_t l = 0; l < src32.size(); ++l) {
      src32[l] = static_cast<std::uint32_t>(rng());
      src64[l] = rng();
    }
    util::aligned_vector<std::uint64_t> offs(count);
    for (auto& o : offs) {
      o = rng.uniform(0, count * 3);
    }
    for (const bool stream : {false, true}) {
      util::aligned_vector<std::uint32_t> got32(count, 1u);
      util::aligned_vector<std::uint64_t> got64(count, 1ull);
      ks.gather_index_u32(reinterpret_cast<kernels::u32lane*>(got32.data()),
                          reinterpret_cast<const kernels::u32lane*>(
                              src32.data()),
                          offs.data(), count, stream);
      ks.gather_index_u64(reinterpret_cast<kernels::u64lane*>(got64.data()),
                          reinterpret_cast<const kernels::u64lane*>(
                              src64.data()),
                          offs.data(), count, stream);
      ks.fence();
      for (std::size_t j = 0; j < count; ++j) {
        ASSERT_EQ(got32[j], src32[static_cast<std::size_t>(offs[j])])
            << "u32 count=" << count << " stream=" << stream << " j=" << j;
        ASSERT_EQ(got64[j], src64[static_cast<std::size_t>(offs[j])])
            << "u64 count=" << count << " stream=" << stream << " j=" << j;
      }
    }
  }
}

TEST_P(KernelTiers, GatherIndexInPlaceForwardSweep) {
  // The sanctioned dst == src use: offsets only ever point at-or-ahead of
  // the slot being written (offs[j] >= j), as fine_rotate_group's
  // residual*n + jj streams do.  Mimic one group row: width slots,
  // offsets j + res with res in [0, 3], source window extending past the
  // row like the matrix rows below the current one.
  const kernel_set& ks = kernels::set_for(GetParam());
  const std::size_t width = 137;
  util::aligned_vector<std::uint64_t> offs(width);
  for (std::size_t j = 0; j < width; ++j) {
    offs[j] = j + (j * 7) % 4 * width;  // rows 0..3 of an imagined group
  }
  for (const bool stream : {false, true}) {
    util::aligned_vector<std::uint32_t> buf32(4 * width);
    util::aligned_vector<std::uint64_t> buf64(4 * width);
    std::iota(buf32.begin(), buf32.end(), 100u);
    std::iota(buf64.begin(), buf64.end(), 1000ull);
    const std::vector<std::uint32_t> src32(buf32.begin(), buf32.end());
    const std::vector<std::uint64_t> src64(buf64.begin(), buf64.end());
    ks.gather_index_u32(reinterpret_cast<kernels::u32lane*>(buf32.data()),
                        reinterpret_cast<const kernels::u32lane*>(
                            buf32.data()),
                        offs.data(), width, stream);
    ks.gather_index_u64(reinterpret_cast<kernels::u64lane*>(buf64.data()),
                        reinterpret_cast<const kernels::u64lane*>(
                            buf64.data()),
                        offs.data(), width, stream);
    ks.fence();
    for (std::size_t j = 0; j < width; ++j) {
      ASSERT_EQ(buf32[j], src32[static_cast<std::size_t>(offs[j])])
          << "u32 in-place stream=" << stream << " j=" << j;
      ASSERT_EQ(buf64[j], src64[static_cast<std::size_t>(offs[j])])
          << "u64 in-place stream=" << stream << " j=" << j;
    }
  }
}

// --- the fine rotation's blend network ---------------------------------------
//
// fine_rotate_group runs a group's unwrapped rows through the tier's
// rotate_rows network where the tier has one (AVX2, AVX-512) and through
// the scalar loop elsewhere; every tier must match rotate_column_naive
// bit for bit.

/// The residual families the engines feed the fine pass of a w-wide
/// group at column j0: the fused C2R shuffle's jj, the fused R2C
/// shuffle's w - 1 - jj, and the pre-rotation's floor(j/b) - k and its
/// inverse after rotate_group_cache_aware's normalization.
std::vector<std::vector<std::uint64_t>> engine_residuals(std::uint64_t w,
                                                         std::uint64_t j0,
                                                         std::uint64_t b) {
  std::vector<std::vector<std::uint64_t>> out(4,
                                              std::vector<std::uint64_t>(w));
  for (std::uint64_t jj = 0; jj < w; ++jj) {
    out[0][jj] = jj;
    out[1][jj] = w - 1 - jj;
    out[2][jj] = (j0 + jj) / b - j0 / b;
    out[3][jj] = (j0 + w - 1) / b - (j0 + jj) / b;
  }
  return out;
}

/// `a` with column j0 + jj rotated by res[jj] through rotate_column_naive.
template <typename T>
std::vector<T> naive_rotated(std::vector<T> a, std::uint64_t m,
                             std::uint64_t n, std::uint64_t j0,
                             const std::vector<std::uint64_t>& res) {
  std::vector<T> tmp(m);
  for (std::uint64_t jj = 0; jj < res.size(); ++jj) {
    detail::rotate_column_naive(a.data(), m, n, j0 + jj, res[jj], tmp.data());
  }
  return a;
}

template <typename T>
std::vector<T> random_lanes(std::size_t count, std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<T> v(count);
  for (auto& x : v) {
    x = static_cast<T>(rng());
  }
  return v;
}

/// Every engine residual family on groups of w lanes (not a multiple of
/// any vector width, one vector, several, and two network tiles), with
/// guard columns on both sides, for m from max_res + 1 (every row but
/// the first wraps) through row counts that are not multiples of the
/// network's 2^K-row window.
template <typename T>
void check_fine_group_against_naive(const kernel_set& ks) {
  for (const std::uint64_t w : {5u, 13u, 16u, 37u, 100u, 256u, 1100u}) {
    const std::uint64_t j0 = 5;
    const std::uint64_t n = j0 + w + 6;
    for (const std::uint64_t b : {3u, 7u}) {
      for (const auto& res : engine_residuals(w, j0, b)) {
        const std::uint64_t max_res = *std::max_element(res.begin(), res.end());
        const std::uint64_t span = std::bit_ceil(max_res + 1);
        std::vector<std::uint64_t> rows = {max_res + 1, max_res + 2,
                                           max_res + 41};
        if (w <= 256) {
          rows.push_back(2 * span + 3);
          rows.push_back(4 * span + 5);
        }
        for (const std::uint64_t m : rows) {
          const auto src = random_lanes<T>(m * n, m * 977 + w * 31 + b);
          const auto want = naive_rotated(src, m, n, j0, res);
          auto got = src;
          util::aligned_vector<T> head(fine_head_elements(m, w));
          detail::fine_rotate_group(got.data(), m, n, j0, w, res.data(),
                                    head.data(), &ks);
          ASSERT_EQ(got, want) << kernels::tier_name(ks.t) << " "
                               << sizeof(T) << "-byte w=" << w
                               << " max_res=" << max_res << " m=" << m;
        }
      }
    }
  }
}

TEST_P(KernelTiers, FineGroupMatchesNaiveRotationU32) {
  check_fine_group_against_naive<std::uint32_t>(kernels::set_for(GetParam()));
}

TEST_P(KernelTiers, FineGroupMatchesNaiveRotationU64) {
  check_fine_group_against_naive<std::uint64_t>(kernels::set_for(GetParam()));
}

/// The rotate_rows contract on its own: rows [0, rows) match the naive
/// rotation, while every later row and the lanes outside the group keep
/// their values, with more readable rows than the residuals need.
template <typename T>
void check_rotate_rows_contract(const kernel_set& ks) {
  if (!kernels::has_rotate_rows<T>(ks)) {
    return;  // the scalar loop is the whole fine pass on this tier
  }
  const std::uint64_t w = 45;
  const std::uint64_t j0 = 2;
  const std::uint64_t n = 53;
  for (const auto& res : engine_residuals(w, j0, 4)) {
    const std::uint64_t max_res = *std::max_element(res.begin(), res.end());
    for (const std::uint64_t rows : {1u, 9u, 70u}) {
      const std::uint64_t avail = rows + max_res + 3;
      const std::uint64_t m = avail + 2;
      const auto src = random_lanes<T>(m * n, rows * 13 + max_res);
      auto got = src;
      kernels::rotate_rows(ks, got.data() + j0, rows, avail, n, w,
                           res.data());
      for (std::uint64_t i = 0; i < m; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
          const bool lane = j >= j0 && j < j0 + w;
          if (lane && i < rows) {
            ASSERT_EQ(got[i * n + j], src[(i + res[j - j0]) * n + j])
                << kernels::tier_name(ks.t) << " row " << i << " lane "
                << j - j0 << " max_res=" << max_res;
          } else {
            ASSERT_EQ(got[i * n + j], src[i * n + j])
                << kernels::tier_name(ks.t) << " touched row " << i
                << " col " << j << " max_res=" << max_res;
          }
        }
      }
    }
  }
}

TEST_P(KernelTiers, RotateRowsKeepsItsContract) {
  const kernel_set& ks = kernels::set_for(GetParam());
  check_rotate_rows_contract<std::uint32_t>(ks);
  check_rotate_rows_contract<std::uint64_t>(ks);
}

TEST_P(KernelTiers, GroupRotationFallsBackWhenResidualsSpanTheWindow) {
  // Amounts whose residual span reaches min(w, m) cannot go through the
  // fine pass's window: rotate_group_cache_aware rotates those columns
  // one by one, on every tier.
  const kernel_set& ks = kernels::set_for(GetParam());
  const std::uint64_t m = 150;
  const std::uint64_t n = 96;
  const std::uint64_t w = 32;
  for (const std::uint64_t step : {1u, 5u, 40u}) {
    const auto amount = [&](std::uint64_t j) { return j * step % m; };
    std::vector<std::uint64_t> res(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      res[j] = amount(j);
    }
    const auto src = random_lanes<std::uint32_t>(m * n, step);
    const auto want = naive_rotated(src, m, n, 0, res);
    auto got = src;
    detail::workspace<std::uint32_t> ws;
    ws.reserve(m, n, w);
    detail::rotate_columns_blocked(got.data(), m, n, w, amount, ws, &ks);
    ASSERT_EQ(got, want) << kernels::tier_name(ks.t) << " step " << step;
  }
}

// --- scratch alignment regression -------------------------------------------

TEST(KernelAlignment, WorkspaceScratchIs64ByteAligned) {
  detail::workspace<float> ws;
  ws.reserve(211, 199, 16);
  EXPECT_TRUE(util::is_scratch_aligned(ws.line.data()));
  EXPECT_TRUE(util::is_scratch_aligned(ws.head.data()));
  EXPECT_TRUE(util::is_scratch_aligned(ws.subrow.data()));
  EXPECT_TRUE(util::is_scratch_aligned(ws.index.data()));
  detail::workspace<util::vec4f> ws16;
  ws16.reserve(64, 48, 8);
  EXPECT_TRUE(util::is_scratch_aligned(ws16.line.data()));
  EXPECT_TRUE(util::is_scratch_aligned(ws16.head.data()));
}

TEST(KernelAlignment, WorkspacePoolHandsOutAlignedScratch) {
  // Regression: the pool's per-thread workspaces used to come from plain
  // std::vector (unaligned), breaking the NT-store and assume_aligned
  // contracts the kernel layer depends on.
  detail::workspace_pool<std::uint32_t> pool(97, 89, 16, 4);
  ASSERT_GE(pool.size(), 1u);
  EXPECT_TRUE(util::is_scratch_aligned(pool.front().line.data()));
  EXPECT_TRUE(util::is_scratch_aligned(pool.front().subrow.data()));
  EXPECT_TRUE(util::is_scratch_aligned(pool.front().head.data()));
  EXPECT_TRUE(util::is_scratch_aligned(pool.front().index.data()));
}

TEST(KernelAlignment, AlignedVectorIsAlignedForAllElementWidths) {
  util::aligned_vector<std::uint8_t> v1(3);
  util::aligned_vector<std::uint16_t> v2(5);
  util::aligned_vector<std::uint32_t> v4(7);
  util::aligned_vector<std::uint64_t> v8(9);
  util::aligned_vector<util::vec4f> v16(11);
  EXPECT_TRUE(util::is_scratch_aligned(v1.data()));
  EXPECT_TRUE(util::is_scratch_aligned(v2.data()));
  EXPECT_TRUE(util::is_scratch_aligned(v4.data()));
  EXPECT_TRUE(util::is_scratch_aligned(v8.data()));
  EXPECT_TRUE(util::is_scratch_aligned(v16.data()));
}

}  // namespace
