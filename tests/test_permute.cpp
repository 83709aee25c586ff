// General-permutation engine suite (core/perm.hpp / perm_plan.hpp /
// perm_engine.hpp), compiled with INPLACE_ENABLE_CHECKS so the executor's
// fingerprint REQUIRE is live: the plan-time classifier's verdicts, every
// executor against the out-of-place reference, in-place permutation
// inversion, validation/restore error paths, and the context cache's
// content-fingerprint keying.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/contracts.hpp"
#include "core/perm.hpp"
#include "core/perm_plan.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;

/// Out-of-place reference: the gather want[i] = src[pi[i]], or with
/// `inverse` the scatter want[pi[i]] = src[i].
template <typename T, typename I>
std::vector<T> reference_permute(const std::vector<T>& src,
                                 const std::vector<I>& pi, bool inverse) {
  std::vector<T> want(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const auto p = static_cast<std::size_t>(pi[i]);
    if (inverse) {
      want[p] = src[i];
    } else {
      want[i] = src[p];
    }
  }
  return want;
}

template <typename T>
std::vector<T> iota_buffer(std::size_t n) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<T>(i * 2654435761u + 13);
  }
  return v;
}

template <typename I>
std::vector<I> random_perm(std::size_t n, util::xoshiro256& rng) {
  std::vector<I> pi(n);
  std::iota(pi.begin(), pi.end(), I{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(pi[i - 1], pi[rng.uniform(0, i)]);
  }
  return pi;
}

/// Runs both directions of one (buffer, pi) pair through the public API
/// and checks each against the reference.
template <typename T, typename I>
void check_both_directions(const std::vector<I>& pi, const options& opts = {}) {
  const std::vector<T> src = iota_buffer<T>(pi.size());
  std::vector<T> a = src;
  permute(std::span<T>(a), std::span<const I>(pi), opts);
  EXPECT_EQ(a, reference_permute(src, pi, false)) << "gather n=" << pi.size();
  a = src;
  permute_inverse(std::span<T>(a), std::span<const I>(pi), opts);
  EXPECT_EQ(a, reference_permute(src, pi, true)) << "scatter n=" << pi.size();
  // Round trip: pi then pi^-1 is the identity.
  permute(std::span<T>(a), std::span<const I>(pi), opts);
  EXPECT_EQ(a, src) << "round trip n=" << pi.size();
}

// --- the classifier ----------------------------------------------------------

TEST(PermPlan, ClassifiesIdentity) {
  std::vector<std::uint32_t> pi(17);
  std::iota(pi.begin(), pi.end(), 0u);
  const perm_plan plan =
      make_perm_plan<std::uint32_t>(pi, false, options{}, sizeof(int));
  EXPECT_EQ(plan.kind, perm_kind::identity);
  EXPECT_EQ(plan.n, 17u);
}

TEST(PermPlan, ClassifiesRotation) {
  const std::size_t n = 30;
  std::vector<std::uint64_t> pi(n);
  for (std::size_t i = 0; i < n; ++i) {
    pi[i] = (i + 7) % n;
  }
  const perm_plan plan =
      make_perm_plan<std::uint64_t>(pi, false, options{}, sizeof(int));
  EXPECT_EQ(plan.kind, perm_kind::rotation);
  EXPECT_EQ(plan.rot_k, 7u);
}

TEST(PermPlan, ClassifiesBitReversal) {
  const std::size_t n = 64;  // 2^6
  std::vector<std::uint32_t> pi(n);
  for (std::size_t i = 0; i < n; ++i) {
    pi[i] = static_cast<std::uint32_t>(detail::perm_bitrev(i, 6));
  }
  const perm_plan plan =
      make_perm_plan<std::uint32_t>(pi, false, options{}, sizeof(int));
  EXPECT_EQ(plan.kind, perm_kind::bit_reversal);
  EXPECT_EQ(plan.log2n, 6u);
}

TEST(PermPlan, ClassifiesTransposeAsC2RFactorization) {
  // pi[i] = i*a mod (n-1) with a = 3, n = 12: the C2R gather of a 4x3
  // matrix (Catanzaro Eq. 2 with cols = a).
  const std::uint64_t n = 12;
  const std::uint64_t a = 3;
  std::vector<std::uint32_t> pi(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    pi[i] = static_cast<std::uint32_t>(i == n - 1 ? n - 1 : i * a % (n - 1));
  }
  const perm_plan plan =
      make_perm_plan<std::uint32_t>(pi, false, options{}, sizeof(int));
  EXPECT_EQ(plan.kind, perm_kind::transpose2d);
  EXPECT_EQ(plan.t2d_rows, 4u);
  EXPECT_EQ(plan.t2d_cols, 3u);
}

TEST(PermPlan, ClassifiesEverythingElseGeneric) {
  std::vector<std::uint32_t> pi = {2, 0, 1, 4, 3, 6, 5, 7};
  const perm_plan plan =
      make_perm_plan<std::uint32_t>(pi, false, options{}, sizeof(int));
  EXPECT_EQ(plan.kind, perm_kind::generic);
}

TEST(PermPlan, FingerprintSeparatesContentOfOneLength) {
  std::vector<std::uint32_t> a = {1, 2, 0, 3};
  std::vector<std::uint32_t> b = {3, 2, 1, 0};
  const auto pa = make_perm_plan<std::uint32_t>(a, false, options{}, 4);
  const auto pb = make_perm_plan<std::uint32_t>(b, false, options{}, 4);
  EXPECT_TRUE(pa.fingerprint_lo != pb.fingerprint_lo ||
              pa.fingerprint_hi != pb.fingerprint_hi);
  EXPECT_NE(pa.fingerprint_lo, 0u);
  EXPECT_NE(pa.fingerprint_hi, 0u);
}

TEST(PermPlan, RejectsOutOfRangeAndNegativeEntries) {
  std::vector<std::uint32_t> high = {0, 1, 7};
  EXPECT_THROW(
      (void)make_perm_plan<std::uint32_t>(high, false, options{}, 4), error);
  std::vector<std::int32_t> negative = {0, -1, 2};
  EXPECT_THROW(
      (void)make_perm_plan<std::int32_t>(negative, false, options{}, 4),
      error);
  // n = 1 is degenerate but still validated.
  std::vector<std::int32_t> tiny = {5};
  EXPECT_THROW((void)make_perm_plan<std::int32_t>(tiny, false, options{}, 4),
               error);
}

// --- executors vs the reference ---------------------------------------------

TEST(Permute, IdentityAndDegenerateLengthsAreNoOps) {
  std::vector<int> empty;
  std::vector<std::uint32_t> pi0;
  permute(std::span<int>(empty), std::span<const std::uint32_t>(pi0));
  std::vector<int> one = {42};
  std::vector<std::uint32_t> pi1 = {0};
  permute(std::span<int>(one), std::span<const std::uint32_t>(pi1));
  EXPECT_EQ(one[0], 42);
  std::vector<std::uint32_t> id(33);
  std::iota(id.begin(), id.end(), 0u);
  std::vector<int> a = iota_buffer<int>(33);
  const auto src = a;
  permute(std::span<int>(a), std::span<const std::uint32_t>(id));
  EXPECT_EQ(a, src);
}

TEST(Permute, RotationsSmallAndJuggling) {
  // g = gcd(n, k) < 4 takes the 3-reversal form; g >= 4 the juggling
  // pass.  Cover both, plus k near the ends.
  const struct {
    std::size_t n;
    std::size_t k;
  } cases[] = {{5, 2},  {12, 8},   {30, 1},   {30, 29},
               {96, 24}, {1024, 256}, {1000, 600}};
  for (const auto& c : cases) {
    std::vector<std::uint32_t> pi(c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      pi[i] = static_cast<std::uint32_t>((i + c.k) % c.n);
    }
    ASSERT_EQ(
        make_perm_plan<std::uint32_t>(pi, false, options{}, 4).kind,
        perm_kind::rotation)
        << c.n << "," << c.k;
    check_both_directions<std::uint64_t>(pi);
    check_both_directions<std::uint8_t>(pi);
  }
}

TEST(Permute, BitReversalNaiveAndCobra) {
  // w < 4 forces q = 0 (naive pair swap; w = 1 is the identity, skipped);
  // w = 14 engages the COBRA tile pairing with an odd middle field, w = 16
  // an even one.
  for (const std::uint64_t w : {2u, 3u, 6u, 12u, 14u, 16u}) {
    const std::size_t n = std::size_t{1} << w;
    std::vector<std::uint32_t> pi(n);
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] = static_cast<std::uint32_t>(detail::perm_bitrev(i, w));
    }
    ASSERT_EQ(
        make_perm_plan<std::uint32_t>(pi, false, options{}, 4).kind,
        perm_kind::bit_reversal)
        << "w=" << w;
    check_both_directions<std::uint32_t>(pi);
    if (w <= 12) {
      check_both_directions<double>(pi);
      check_both_directions<std::uint16_t>(pi);
    }
  }
}

TEST(Permute, TransposeDelegateMatchesReference) {
  for (const auto& [rows, cols] : {std::pair<std::uint64_t, std::uint64_t>{4, 3},
                                   {7, 5},
                                   {32, 48},
                                   {129, 64}}) {
    const std::uint64_t n = rows * cols;
    std::vector<std::uint64_t> pi(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      pi[i] = i == n - 1 ? n - 1 : i * cols % (n - 1);
    }
    ASSERT_EQ(
        make_perm_plan<std::uint64_t>(pi, false, options{}, 4).kind,
        perm_kind::transpose2d)
        << rows << "x" << cols;
    check_both_directions<std::uint32_t>(pi);
    check_both_directions<float>(pi);
  }
}

TEST(Permute, GenericRandomShufflesMatchReference) {
  util::xoshiro256 rng(0x5EED);
  for (const std::size_t n : {2u, 3u, 17u, 100u, 1000u, 4096u}) {
    const auto pi = random_perm<std::uint32_t>(n, rng);
    check_both_directions<std::uint64_t>(pi);
    check_both_directions<std::uint8_t>(pi);
  }
}

TEST(Permute, SignedIndexTypesWork) {
  util::xoshiro256 rng(0xABCD);
  const auto pi32 = random_perm<std::int32_t>(257, rng);
  check_both_directions<std::uint32_t>(pi32);
  const auto pi16 = random_perm<std::int16_t>(300, rng);
  check_both_directions<std::uint16_t>(pi16);
}

// --- validation and restore -------------------------------------------------

TEST(Permute, LengthMismatchThrowsUntouched) {
  std::vector<int> a = {1, 2, 3};
  const auto src = a;
  std::vector<std::uint32_t> pi = {1, 0};
  EXPECT_THROW(permute(std::span<int>(a), std::span<const std::uint32_t>(pi)),
               error);
  EXPECT_EQ(a, src);
}

TEST(Permute, OutOfRangeIndexThrowsUntouched) {
  std::vector<int> a = {1, 2, 3, 4};
  const auto src = a;
  std::vector<std::uint32_t> pi = {1, 0, 9, 2};
  EXPECT_THROW(permute(std::span<int>(a), std::span<const std::uint32_t>(pi)),
               error);
  EXPECT_EQ(a, src);
}

TEST(Permute, NonBijectionIsCaughtAndRolledBack) {
  // In range but not a bijection: the generic walk's step guard throws
  // and the applied cycles roll back, leaving the buffer bit-exact.
  std::vector<int> a = {10, 20, 30, 40, 50};
  const auto src = a;
  std::vector<std::uint32_t> pi = {1, 0, 3, 3, 4};  // 3 hit twice, 2 never
  EXPECT_THROW(permute(std::span<int>(a), std::span<const std::uint32_t>(pi)),
               error);
  EXPECT_EQ(a, src);
}

#if INPLACE_CHECKS_ENABLED
TEST(Permute, CheckedModeCatchesPlanPermutationMismatch) {
  // A permuter built for pi A must refuse pi B of the same length: the
  // execute-side fingerprint REQUIRE is exactly the guard that makes the
  // context's content-addressed arena reuse sound.
  util::xoshiro256 rng(0x0FF1CE);
  const auto pa = random_perm<std::uint32_t>(50, rng);
  auto pb = pa;
  std::swap(pb[3], pb[20]);
  const perm_plan plan = make_perm_plan<std::uint32_t>(
      std::span<const std::uint32_t>(pa), false, options{}, sizeof(int));
  std::vector<int> a = iota_buffer<int>(50);
  const auto src = a;
  permuter<int> p(plan, options{}, a.data());
  EXPECT_THROW(
      p.execute(a.data(), std::span<const std::uint32_t>(pb), false),
      contract_violation);
  EXPECT_EQ(a, src);
  // The right permutation still goes through on the same instance.
  p.execute(a.data(), std::span<const std::uint32_t>(pa), false);
  EXPECT_EQ(a, reference_permute(src, pa, false));
}
#endif

// --- invert_permutation ------------------------------------------------------

TEST(InvertPermutation, RandomRoundTrips) {
  util::xoshiro256 rng(0x1234);
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 513u, 4096u}) {
    const auto pi = random_perm<std::uint32_t>(n, rng);
    auto inv = pi;
    invert_permutation(std::span<std::uint32_t>(inv));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(inv[pi[i]], i);
    }
    // Inverting twice is the identity on the input.
    invert_permutation(std::span<std::uint32_t>(inv));
    EXPECT_EQ(inv, pi);
  }
}

TEST(InvertPermutation, SignedAndNarrowIndexTypes) {
  util::xoshiro256 rng(0x4321);
  const auto p32 = random_perm<std::int32_t>(100, rng);
  auto inv = p32;
  invert_permutation(std::span<std::int32_t>(inv));
  for (std::size_t i = 0; i < inv.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(inv[static_cast<std::size_t>(p32[i])]),
              i);
  }
  // int8_t leaves 128 usable values; n = 100 fits under the top bit.
  const auto p8 = random_perm<std::int8_t>(100, rng);
  auto inv8 = p8;
  invert_permutation(std::span<std::int8_t>(inv8));
  for (std::size_t i = 0; i < inv8.size(); ++i) {
    EXPECT_EQ(
        static_cast<std::size_t>(inv8[static_cast<std::size_t>(p8[i])]), i);
  }
}

TEST(InvertPermutation, PermuteInverseAgreesWithMaterializedInverse) {
  util::xoshiro256 rng(0x9999);
  const auto pi = random_perm<std::uint32_t>(321, rng);
  auto inv = pi;
  invert_permutation(std::span<std::uint32_t>(inv));
  const std::vector<std::uint64_t> src = iota_buffer<std::uint64_t>(321);
  auto a = src;
  auto b = src;
  permute_inverse(std::span<std::uint64_t>(a),
                  std::span<const std::uint32_t>(pi));
  permute(std::span<std::uint64_t>(b), std::span<const std::uint32_t>(inv));
  EXPECT_EQ(a, b);
}

TEST(InvertPermutation, TopBitOverflowThrowsUntouched) {
  // uint8_t marking needs n <= 128; 200 entries cannot be tagged.
  std::vector<std::uint8_t> pi(200);
  std::iota(pi.begin(), pi.end(), std::uint8_t{0});
  const auto src = pi;
  EXPECT_THROW(invert_permutation(std::span<std::uint8_t>(pi)), error);
  EXPECT_EQ(pi, src);
}

TEST(InvertPermutation, OutOfRangeThrowsUntouched) {
  std::vector<std::uint32_t> pi = {0, 1, 5};
  const auto src = pi;
  EXPECT_THROW(invert_permutation(std::span<std::uint32_t>(pi)), error);
  EXPECT_EQ(pi, src);
}

TEST(InvertPermutation, NonBijectionThrowsRestored) {
  // Valid range, repeated value: the mid-walk mark collision detects it,
  // and the completed cycle reversals roll back — bit-exact restore.
  util::xoshiro256 rng(0x7777);
  for (int t = 0; t < 50; ++t) {
    auto pi = random_perm<std::uint32_t>(40, rng);
    pi[rng.uniform(0, 40)] = pi[rng.uniform(0, 40)];
    // Self-repair odds: the clobber may still be a bijection (copying a
    // slot onto itself); skip those draws.
    std::vector<bool> seen(40, false);
    bool bijection = true;
    for (const auto v : pi) {
      bijection = bijection && !seen[v];
      seen[v] = true;
    }
    if (bijection) {
      continue;
    }
    const auto src = pi;
    EXPECT_THROW(invert_permutation(std::span<std::uint32_t>(pi)), error);
    EXPECT_EQ(pi, src);
  }
}

// --- context integration -----------------------------------------------------

TEST(PermuteContext, WarmCallsReuseTheCachedArena) {
  transpose_context ctx;
  util::xoshiro256 rng(0xCACE);
  const auto pi = random_perm<std::uint32_t>(500, rng);
  const std::vector<std::uint64_t> src = iota_buffer<std::uint64_t>(500);
  auto a = src;
  ctx.permute(a.data(), std::span<const std::uint32_t>(pi));
  EXPECT_EQ(ctx.stats().plan_misses, 1u);
  auto b = src;
  ctx.permute(b.data(), std::span<const std::uint32_t>(pi));
  EXPECT_EQ(ctx.stats().plan_hits, 1u);
  EXPECT_EQ(ctx.stats().arenas_reused, 1u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, reference_permute(src, pi, false));
}

TEST(PermuteContext, DifferentContentOfOneLengthNeverAliases) {
  transpose_context ctx;
  util::xoshiro256 rng(0xD00D);
  const auto pa = random_perm<std::uint32_t>(64, rng);
  auto pb = pa;
  std::reverse(pb.begin(), pb.end());
  const std::vector<int> src = iota_buffer<int>(64);
  auto a = src;
  auto b = src;
  ctx.permute(a.data(), std::span<const std::uint32_t>(pa));
  ctx.permute(b.data(), std::span<const std::uint32_t>(pb));
  EXPECT_EQ(ctx.stats().plan_misses, 2u);  // distinct fingerprints
  EXPECT_EQ(a, reference_permute(src, pa, false));
  EXPECT_EQ(b, reference_permute(src, pb, false));
  // Directions key separately too (gather vs scatter arenas differ).
  auto c = src;
  ctx.permute(c.data(), std::span<const std::uint32_t>(pa), /*inverse=*/true);
  EXPECT_EQ(ctx.stats().plan_misses, 3u);
  EXPECT_EQ(c, reference_permute(src, pa, true));
}

TEST(PermuteContext, MixedIndexTypesShareOneArena) {
  // The cache key is content-addressed: the same permutation handed over
  // as uint32 and as int64 resolves to one cached arena family.
  transpose_context ctx;
  std::vector<std::uint32_t> p32 = {3, 2, 1, 0, 5, 4};
  std::vector<std::int64_t> p64(p32.begin(), p32.end());
  const std::vector<int> src = iota_buffer<int>(6);
  auto a = src;
  auto b = src;
  ctx.permute(a.data(), std::span<const std::uint32_t>(p32));
  ctx.permute(b.data(), std::span<const std::int64_t>(p64));
  EXPECT_EQ(ctx.stats().plan_hits, 1u);
  EXPECT_EQ(a, b);
}

TEST(PermuteContext, NullDataThrowsForNonemptyPermutation) {
  transpose_context ctx;
  std::vector<std::uint32_t> pi = {1, 0};
  EXPECT_THROW(
      ctx.permute(static_cast<int*>(nullptr),
                  std::span<const std::uint32_t>(pi)),
      error);
}

}  // namespace
