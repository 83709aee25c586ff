// Tests for the strength-reduced division of Section 4.4
// (core/fastdiv.hpp): the reciprocal path must agree with hardware
// division everywhere the index equations can reach, including the
// fallback for 64-bit dividends.

#include "core/fastdiv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/equations.hpp"
#include "util/rng.hpp"

namespace {

using inplace::fast_divmod;
using inplace::plain_divmod;

void expect_agrees(const fast_divmod& fd, std::uint64_t x) {
  const std::uint64_t d = fd.divisor();
  EXPECT_EQ(fd.div(x), x / d) << x << " / " << d;
  EXPECT_EQ(fd.mod(x), x % d) << x << " % " << d;
  const auto [q, r] = fd.divmod(x);
  EXPECT_EQ(q, x / d);
  EXPECT_EQ(r, x % d);
}

TEST(FastDivmod, ThrowsOnZeroDivisor) {
  EXPECT_THROW(fast_divmod(0), std::invalid_argument);
  EXPECT_THROW(plain_divmod(0), std::invalid_argument);
}

TEST(FastDivmod, DivisorOne) {
  const fast_divmod fd(1);
  expect_agrees(fd, 0);
  expect_agrees(fd, 12345);
  expect_agrees(fd, ~std::uint64_t{0});
}

TEST(FastDivmod, ExhaustiveSmallOperands) {
  for (std::uint64_t d = 1; d <= 128; ++d) {
    const fast_divmod fd(d);
    for (std::uint64_t x = 0; x <= 1024; ++x) {
      ASSERT_EQ(fd.div(x), x / d) << x << "/" << d;
      ASSERT_EQ(fd.mod(x), x % d) << x << "%" << d;
    }
  }
}

TEST(FastDivmod, PowersOfTwoDivisors) {
  for (int k = 0; k < 32; ++k) {
    const std::uint64_t d = std::uint64_t{1} << k;
    const fast_divmod fd(d);
    expect_agrees(fd, d - 1);
    expect_agrees(fd, d);
    expect_agrees(fd, d + 1);
    expect_agrees(fd, 3 * d + 7);
    expect_agrees(fd, 0xffffffffull);
  }
}

TEST(FastDivmod, BoundaryOperands) {
  const std::uint64_t interesting[] = {
      0, 1, 2, 0x7fffffffull, 0x80000000ull, 0xfffffffeull, 0xffffffffull};
  for (std::uint64_t d : {std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{3}, std::uint64_t{7},
                          std::uint64_t{0x7fffffff}, std::uint64_t{0x80000000},
                          std::uint64_t{0xffffffff}}) {
    const fast_divmod fd(d);
    for (std::uint64_t x : interesting) {
      expect_agrees(fd, x);
    }
  }
}

TEST(FastDivmod, FallbackFor64BitDividends) {
  const fast_divmod fd(12345);
  expect_agrees(fd, std::uint64_t{1} << 33);
  expect_agrees(fd, ~std::uint64_t{0});
  expect_agrees(fd, 0x123456789abcdefull);
}

TEST(FastDivmod, FallbackForWideDivisors) {
  const fast_divmod fd(std::uint64_t{1} << 40);
  expect_agrees(fd, (std::uint64_t{1} << 41) + 17);
  expect_agrees(fd, 5);
}

TEST(FastDivmod, RandomizedAgainstHardware) {
  inplace::util::xoshiro256 rng(17);
  for (int t = 0; t < 200000; ++t) {
    const std::uint64_t d = rng.uniform(1, std::uint64_t{1} << 32);
    const fast_divmod fd(d);
    expect_agrees(fd, rng.uniform(0, std::uint64_t{1} << 32));
  }
}

TEST(FastDivmod, TransposeRelevantDivisors) {
  // The divisors actually instantiated by transpose_math: m, n, a, b, c for
  // the benchmark extent range, with dividends up to m*n.
  inplace::util::xoshiro256 rng(18);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t m = rng.uniform(1, 30000);
    const std::uint64_t n = rng.uniform(1, 30000);
    for (std::uint64_t d : {m, n}) {
      const fast_divmod fd(d);
      for (int s = 0; s < 50; ++s) {
        expect_agrees(fd, rng.uniform(0, m * n + 1));
      }
    }
  }
}

TEST(PlainDivmod, MatchesHardware) {
  inplace::util::xoshiro256 rng(19);
  for (int t = 0; t < 10000; ++t) {
    const std::uint64_t d = rng.uniform(1, std::uint64_t{1} << 48);
    const plain_divmod pd(d);
    const std::uint64_t x = rng.uniform(0, std::uint64_t{1} << 60);
    EXPECT_EQ(pd.div(x), x / d);
    EXPECT_EQ(pd.mod(x), x % d);
    const auto [q, r] = pd.divmod(x);
    EXPECT_EQ(q, x / d);
    EXPECT_EQ(r, x % d);
  }
}

TEST(FastDivmod, TransposeMathAgreesWithPlainDivisionBeyond32Bits) {
  // Math-only overflow stress: for shapes with m*n >= 2^32 the reciprocal
  // falls back to hardware division, and every index equation must still
  // agree with plain / and %.  (No buffer of that size is allocated --
  // only the permutation algebra runs.)  Edges plus a coarse interior
  // lattice keep this fast.
  struct big_shape {
    std::uint64_t m, n;
  };
  for (const auto [m, n] : {big_shape{65536, 65537},  // mn = 2^32 + 65536
                            big_shape{65537, 65536},
                            big_shape{92681, 46337},  // coprime, mn > 2^32
                            big_shape{1ull << 20, (1ull << 12) + 1}}) {
    const inplace::transpose_math<fast_divmod> fast(m, n);
    const inplace::transpose_math<plain_divmod> plain(m, n);
    ASSERT_EQ(fast.c, plain.c);
    const std::uint64_t istep = m / 19 + 1;
    const std::uint64_t jstep = n / 19 + 1;
    auto sample = [](std::uint64_t k, std::uint64_t step, std::uint64_t lim) {
      // 0, 1, lim-2, lim-1 plus the lattice points.
      return k < 2 ? k : (k < 4 ? lim - 4 + k : (k - 3) * step % lim);
    };
    for (std::uint64_t ik = 0; ik < 23; ++ik) {
      const std::uint64_t i = sample(ik, istep, m);
      ASSERT_EQ(fast.q(i), plain.q(i)) << m << "x" << n << " i=" << i;
      ASSERT_EQ(fast.q_inv(i), plain.q_inv(i)) << m << "x" << n;
      ASSERT_EQ(plain.q_inv(plain.q(i)), i) << "Eq. 33/34 roundtrip";
      for (std::uint64_t jk = 0; jk < 23; ++jk) {
        const std::uint64_t j = sample(jk, jstep, n);
        const std::uint64_t d = fast.d_prime(i, j);
        ASSERT_EQ(d, plain.d_prime(i, j))
            << m << "x" << n << " (" << i << "," << j << ")";
        ASSERT_EQ(fast.d_prime_inv(i, d), plain.d_prime_inv(i, d));
        ASSERT_EQ(plain.d_prime_inv(i, d), j) << "Eq. 31 must invert Eq. 24";
        ASSERT_EQ(fast.s_prime(i, j), plain.s_prime(i, j));
      }
    }
  }
}

}  // namespace
