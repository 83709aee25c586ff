// Randomized differential fuzzing across the whole public surface: many
// random (shape, engine, direction, element type, thread count, policy)
// configurations, each checked against the out-of-place reference.  This
// is the catch-all net behind the targeted suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/perm.hpp"
#include "core/tensor.hpp"
#include "core/transpose.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;

template <typename T>
void fuzz_one(util::xoshiro256& rng) {
  const std::uint64_t m = rng.uniform(1, 260);
  const std::uint64_t n = rng.uniform(1, 260);
  options opts;
  switch (rng.uniform(0, 4)) {
    case 0:
      opts.engine = engine_kind::reference;
      break;
    case 1:
      opts.engine = engine_kind::blocked;
      break;
    case 2:
      opts.engine = engine_kind::skinny;
      break;
    default:
      opts.engine = engine_kind::automatic;
      break;
  }
  // Untiled draws keep tile-eligible shapes on the scratch-line skinny
  // passes too.
  opts.tile = rng.uniform(0, 2) == 0 ? options::tile_mode::off
                                     : options::tile_mode::automatic;
  opts.threads = static_cast<int>(rng.uniform(0, 3));
  opts.block_bytes = 32u << rng.uniform(0, 4);  // 32..256
  const auto order = rng.uniform(0, 2) == 0 ? storage_order::row_major
                                            : storage_order::col_major;
  switch (rng.uniform(0, 3)) {
    case 0:
      opts.alg = options::algorithm::automatic;
      break;
    case 1:
      opts.alg = options::algorithm::c2r;
      break;
    default:
      opts.alg = options::algorithm::r2c;
      break;
  }

  std::vector<T> a(m * n);
  for (std::size_t l = 0; l < a.size(); ++l) {
    a[l] = static_cast<T>(l * 2654435761u + 97);
  }
  const auto src = a;
  transpose(a.data(), m, n, order, opts);

  // Model: row-major semantics; column-major input equals row-major n x m.
  const std::uint64_t rm = order == storage_order::row_major ? m : n;
  const std::uint64_t rn = order == storage_order::row_major ? n : m;
  const auto want =
      util::reference_transpose(std::span<const T>(src), rm, rn);
  ASSERT_EQ(util::first_mismatch(std::span<const T>(a),
                                 std::span<const T>(want)),
            -1)
      << m << "x" << n << " engine=" << static_cast<int>(opts.engine)
      << " tile=" << static_cast<int>(opts.tile)
      << " order=" << (order == storage_order::row_major ? "rm" : "cm")
      << " alg=" << static_cast<int>(opts.alg)
      << " bw=" << opts.block_bytes;
}

TEST(Fuzz, TransposeU32) {
  util::xoshiro256 rng(0xF00D);
  for (int t = 0; t < 400; ++t) {
    fuzz_one<std::uint32_t>(rng);
  }
}

TEST(Fuzz, TransposeU8) {
  util::xoshiro256 rng(0xBEEF);
  for (int t = 0; t < 200; ++t) {
    fuzz_one<std::uint8_t>(rng);
  }
}

TEST(Fuzz, TransposeU64) {
  util::xoshiro256 rng(0xCAFE);
  for (int t = 0; t < 200; ++t) {
    fuzz_one<std::uint64_t>(rng);
  }
}

TEST(Fuzz, RawPermutationsRoundTrip) {
  util::xoshiro256 rng(0xD1CE);
  for (int t = 0; t < 250; ++t) {
    const std::uint64_t m = rng.uniform(1, 300);
    const std::uint64_t n = rng.uniform(1, 300);
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto src = a;
    options opts;
    opts.engine = static_cast<engine_kind>(rng.uniform(0, 4));
    c2r(a.data(), m, n, opts);
    opts.engine = static_cast<engine_kind>(rng.uniform(0, 4));
    r2c(a.data(), m, n, opts);
    ASSERT_EQ(a, src) << m << "x" << n;
  }
}

TEST(Fuzz, TensorPermutationChains) {
  // Random chains of axis permutations tracked against a shadow model of
  // the current extent order.
  util::xoshiro256 rng(0xFACE);
  const axis_perm perms[] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                             {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int t = 0; t < 25; ++t) {
    std::size_t d[3] = {rng.uniform(1, 16), rng.uniform(1, 16),
                        rng.uniform(1, 16)};
    std::vector<std::uint32_t> a(d[0] * d[1] * d[2]);
    for (std::size_t l = 0; l < a.size(); ++l) {
      a[l] = static_cast<std::uint32_t>(l);
    }
    // Shadow: the original (i0, i1, i2) owning each current axis slot.
    int axis_of[3] = {0, 1, 2};
    for (int step = 0; step < 4; ++step) {
      const axis_perm p = perms[rng.uniform(0, 6)];
      permute3(a.data(), d[0], d[1], d[2], p);
      const std::size_t nd[3] = {d[p[0]], d[p[1]], d[p[2]]};
      const int na[3] = {axis_of[p[0]], axis_of[p[1]], axis_of[p[2]]};
      d[0] = nd[0];
      d[1] = nd[1];
      d[2] = nd[2];
      axis_of[0] = na[0];
      axis_of[1] = na[1];
      axis_of[2] = na[2];
    }
    // Verify a sample of entries against the shadow mapping.
    const std::size_t orig[3] = {d[0], d[1], d[2]};
    (void)orig;
    for (int probe = 0; probe < 50; ++probe) {
      const std::size_t i = rng.uniform(0, d[0]);
      const std::size_t j = rng.uniform(0, d[1]);
      const std::size_t k = rng.uniform(0, d[2]);
      // Reconstruct the original coordinates of this cell.
      std::size_t coord[3] = {};
      coord[static_cast<std::size_t>(axis_of[0])] = i;
      coord[static_cast<std::size_t>(axis_of[1])] = j;
      coord[static_cast<std::size_t>(axis_of[2])] = k;
      // Original extents, recovered from the shadow.
      std::size_t od[3] = {};
      od[static_cast<std::size_t>(axis_of[0])] = d[0];
      od[static_cast<std::size_t>(axis_of[1])] = d[1];
      od[static_cast<std::size_t>(axis_of[2])] = d[2];
      const std::uint32_t want = static_cast<std::uint32_t>(
          (coord[0] * od[1] + coord[1]) * od[2] + coord[2]);
      ASSERT_EQ(a[(i * d[1] + j) * d[2] + k], want);
    }
  }
}

// --- general permutations (core/perm.hpp) ------------------------------------

/// Draws one permutation from a family mix weighted toward the structured
/// classifier paths (rotation / bit-reversal / composed transpose) with
/// random shuffles as the generic catch-all.
template <typename I>
std::vector<I> draw_permutation(std::size_t n, util::xoshiro256& rng) {
  std::vector<I> pi(n);
  std::iota(pi.begin(), pi.end(), I{0});
  if (n < 2) {
    return pi;
  }
  switch (rng.uniform(0, 5)) {
    case 0: {  // rotation by a random k
      const std::size_t k = rng.uniform(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<I>((i + k) % n);
      }
      break;
    }
    case 1: {  // bit reversal of the largest 2^w <= n, rest identity
      std::size_t w = 0;
      while ((std::size_t{2} << w) <= n) {
        ++w;
      }
      for (std::size_t i = 0; i < (std::size_t{1} << w); ++i) {
        pi[i] = static_cast<I>(inplace::detail::perm_bitrev(i, w));
      }
      break;
    }
    case 2: {  // composed transpose: i*a mod (n-1) for a random divisor a
      std::vector<std::size_t> divisors;
      for (std::size_t a = 2; a * 2 <= n; ++a) {
        if (n % a == 0) {
          divisors.push_back(a);
        }
      }
      if (divisors.empty()) {
        break;  // prime length: stay identity, still a valid draw
      }
      const std::size_t a = divisors[rng.uniform(0, divisors.size())];
      for (std::size_t i = 0; i < n; ++i) {
        pi[i] = static_cast<I>(
            i == n - 1 ? n - 1
                       : (i * a) % (n - 1));
      }
      break;
    }
    default: {  // Fisher-Yates shuffle (generic executor)
      for (std::size_t i = n; i > 1; --i) {
        std::swap(pi[i - 1], pi[rng.uniform(0, i)]);
      }
      break;
    }
  }
  return pi;
}

/// One differential round: a drawn permutation applied through the public
/// API in a random direction, checked element-for-element against the
/// out-of-place reference, then undone via the opposite direction and via
/// a materialized invert_permutation inverse.
template <typename T, typename I>
void fuzz_permute_one(util::xoshiro256& rng) {
  // Length mix leans small for cycle-structure diversity but reaches
  // past the COBRA/juggling engagement thresholds, and includes 0/1.
  const std::uint64_t pick = rng.uniform(0, 10);
  const std::size_t n =
      pick == 0 ? rng.uniform(0, 2)
                : (pick < 7 ? rng.uniform(2, 300) : rng.uniform(300, 5000));
  const auto pi = draw_permutation<I>(n, rng);
  const bool inverse = rng.uniform(0, 2) == 1;

  std::vector<T> src(n);
  for (std::size_t l = 0; l < n; ++l) {
    src[l] = static_cast<T>(l * 2654435761u + 7);
  }
  std::vector<T> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::size_t>(pi[i]);
    if (inverse) {
      want[p] = src[i];
    } else {
      want[i] = src[p];
    }
  }

  auto a = src;
  const auto apply = [&](std::vector<T>& buf, bool inv) {
    if (inv) {
      permute_inverse(std::span<T>(buf), std::span<const I>(pi));
    } else {
      permute(std::span<T>(buf), std::span<const I>(pi));
    }
  };
  apply(a, inverse);
  ASSERT_EQ(a, want) << "n=" << n << " inverse=" << inverse
                     << " width=" << sizeof(T);
  // The opposite direction is the exact inverse: round trip restores.
  apply(a, !inverse);
  ASSERT_EQ(a, src) << "round trip n=" << n;
  // And the materialized inverse agrees with the scatter direction.
  auto inv_pi = pi;
  invert_permutation(std::span<I>(inv_pi));
  auto b = src;
  permute(std::span<T>(b), std::span<const I>(inv_pi));
  auto c = src;
  permute_inverse(std::span<T>(c), std::span<const I>(pi));
  ASSERT_EQ(b, c) << "materialized inverse disagrees, n=" << n;
}

TEST(Fuzz, PermuteWidth1) {
  util::xoshiro256 rng(0xA001);
  for (int t = 0; t < 150; ++t) {
    fuzz_permute_one<std::uint8_t, std::uint32_t>(rng);
  }
}

TEST(Fuzz, PermuteWidth2) {
  util::xoshiro256 rng(0xA002);
  for (int t = 0; t < 150; ++t) {
    fuzz_permute_one<std::uint16_t, std::int32_t>(rng);
  }
}

TEST(Fuzz, PermuteWidth4) {
  util::xoshiro256 rng(0xA004);
  for (int t = 0; t < 200; ++t) {
    fuzz_permute_one<std::uint32_t, std::uint64_t>(rng);
  }
}

TEST(Fuzz, PermuteWidth8) {
  util::xoshiro256 rng(0xA008);
  for (int t = 0; t < 200; ++t) {
    fuzz_permute_one<double, std::uint32_t>(rng);
  }
}

TEST(Fuzz, PermuteUnderForcedKernelTiers) {
  // The COBRA gather and the juggling sub-row copies route through the
  // resolved kernel tier; every forced tier must stay bit-identical.
  // resolve_tier re-reads the env per call, so a scoped setenv is enough.
  const char* const old = std::getenv("INPLACE_FORCE_KERNEL_TIER");
  const std::string saved = old != nullptr ? old : "";
  for (const char* tier : {"scalar", "avx2", "avx512", "neon"}) {
    ::setenv("INPLACE_FORCE_KERNEL_TIER", tier, 1);
    // Unsupported tiers resolve to the nearest available one — still a
    // valid differential round, so no capability probe is needed here.
    util::xoshiro256 rng(0xF0CE);
    for (int t = 0; t < 40; ++t) {
      fuzz_permute_one<std::uint32_t, std::uint32_t>(rng);
      fuzz_permute_one<double, std::uint32_t>(rng);
    }
  }
  if (old != nullptr) {
    ::setenv("INPLACE_FORCE_KERNEL_TIER", saved.c_str(), 1);
  } else {
    ::unsetenv("INPLACE_FORCE_KERNEL_TIER");
  }
}

}  // namespace
