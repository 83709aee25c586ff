#pragma once
// Planning for the general in-place permutation engine (core/perm.hpp):
// a plan-time classifier maps an arbitrary index permutation onto the
// cheapest specialized executor the library owns.
//
//   identity      nothing moves (n <= 1 or pi[i] == i everywhere)
//   rotation      pi[i] = (i + k) mod n — gcd-juggling via the Section
//                 4.6 coarse-rotation machinery (core/rotate.hpp), with
//                 the 3-reversal form as the O(1)-scratch rung
//   bit_reversal  n = 2^w, pi[i] = bitrev_w(i) — the COBRA cache-blocked
//                 kernel (Knauth et al.), pairing 2^q x 2^q tiles so
//                 every memory touch is a contiguous 2^q-element sub-row
//   transpose2d   pi[i] = i*a mod (n-1) with a | n — exactly the C2R
//                 permutation of an (n/a) x a matrix (Catanzaro Eq. 2),
//                 dispatched to the existing strength-reduced transpose
//                 engines (Eq. 24/26 kernels) via transposer<T>
//   generic       memoized cycle-leader scan with the byte-map -> bitset
//                 -> O(1) leader-min scratch ladder (Dudek et al.'s
//                 problem class; core/cycle_walker.hpp)
//
// The plan is element-type independent, like transpose_plan.  The
// classifier validates every index (< n) before anything mutates and
// throws inplace::error otherwise; bijectivity is the caller's contract
// (the generic executor's cycle walk refuses a non-bijection before
// anything moves; checked mode proves it on the other paths too).

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/plan.hpp"

namespace inplace {

/// Which specialized executor the classifier selected.
enum class perm_kind : std::uint8_t {
  identity,
  rotation,
  bit_reversal,
  transpose2d,
  generic,
};

/// Stable display names (telemetry plan records, bench JSON).  The perm
/// engine reports engine="perm" and carries the classifier verdict in the
/// plan record's calibration slot (unused by the 2-D paths).
[[nodiscard]] constexpr const char* perm_kind_name(perm_kind k) {
  switch (k) {
    case perm_kind::identity:
      return "identity";
    case perm_kind::rotation:
      return "rotation";
    case perm_kind::bit_reversal:
      return "bit_reversal";
    case perm_kind::transpose2d:
      return "transpose2d";
    case perm_kind::generic:
      return "generic";
  }
  return "unknown";
}

/// A resolved permutation plan.
struct perm_plan {
  std::uint64_t n = 0;  ///< permutation length
  perm_kind kind = perm_kind::generic;
  bool inverse = false;  ///< apply pi^-1 (scatter) instead of pi (gather)

  /// rotation: the gather offset k (pi[i] = (i + k) mod n, k in [1, n)).
  std::uint64_t rot_k = 0;

  /// bit_reversal: w with n = 2^w, and the COBRA tile bits q (tiles are
  /// 2^q x 2^q sub-rows; q = 0 selects the naive pair-swap loop).
  std::uint64_t log2n = 0;
  std::uint64_t cobra_q = 0;

  /// transpose2d: the (rows x cols) C2R factorization (rows*cols = n,
  /// cols = pi[1]); the executor runs direction c2r for the forward
  /// permutation and r2c for the inverse.
  std::uint64_t t2d_rows = 0;
  std::uint64_t t2d_cols = 0;

  /// Resolved hot-path kernel tier (same resolution chain as
  /// transpose_plan.ktier, including INPLACE_FORCE_KERNEL_TIER).
  kernels::tier ktier = kernels::tier::scalar;

  /// Where the executor's scratch acquisition landed on the OOM ladder
  /// (planning emits full; permuter<T, I> demotes on bad_alloc only).
  scratch_rung rung = scratch_rung::full;

  /// Content fingerprint of pi (two independent 64-bit FNV streams):
  /// the context cache key carries it for generic plans, so two
  /// different permutations of one length do not share a cached arena
  /// (the arena's exact match refuses any that collide).
  std::uint64_t fingerprint_lo = 0;
  std::uint64_t fingerprint_hi = 0;
};

namespace detail {

/// Reverses the low `w` bits of `v` (v < 2^w).  Plan/setup-time only —
/// the COBRA executor builds tile-local tables from this instead of
/// calling it per element on the hot path.
[[nodiscard]] constexpr std::uint64_t perm_bitrev(std::uint64_t v,
                                                  std::uint64_t w) {
  std::uint64_t r = 0;
  for (std::uint64_t b = 0; b < w; ++b) {
    r = (r << 1) | ((v >> b) & 1u);
  }
  return r;
}

/// The permutation content fingerprint: two independent 64-bit streams
/// (FNV-1a and an index-salted FNV variant) fed one entry at a time.
/// Shared by the classifier (perm_plan.cpp) and the checked-mode replay
/// verification in the executor — the two must byte-match or warm cache
/// hits would be unverifiable.
struct perm_fnv {
  std::uint64_t lo = 1469598103934665603ull;
  std::uint64_t hi = 0x9e3779b97f4a7c15ull;

  constexpr void feed(std::uint64_t v, std::uint64_t i) {
    lo = (lo ^ v) * 1099511628211ull;
    hi = (hi ^ (v + 0x9e3779b97f4a7c15ull)) * 0x100000001b3ull + i;
  }

  /// Zero is the "no fingerprint" sentinel in context keys.
  [[nodiscard]] constexpr std::uint64_t final_lo() const {
    return lo != 0 ? lo : 1;
  }
  [[nodiscard]] constexpr std::uint64_t final_hi() const {
    return hi != 0 ? hi : 1;
  }
};

/// Type-erased element accessor the non-template classifier core reads
/// pi through (the public API is templated on the index type).
using perm_index_fn = std::uint64_t (*)(const void* pi, std::uint64_t i);

/// Classifier core (perm_plan.cpp): one O(n) validation + structure scan.
/// Fires the "perm.plan.classify" failpoint before reading anything, so
/// an injected planning fault provably leaves the data buffer untouched.
/// Throws inplace::error when any index is out of range.
perm_plan classify_permutation(std::uint64_t n, perm_index_fn get,
                               const void* pi, bool inverse,
                               const options& opts, std::size_t elem_size);

}  // namespace detail

/// Builds the plan for applying `pi` (gather: out[i] = in[pi[i]]) or, with
/// `inverse`, pi^-1 (scatter: out[pi[i]] = in[i]) to an n-element buffer.
/// Validates pi's range; bijectivity is a precondition (checked mode
/// proves it at execution time).
template <typename I>
[[nodiscard]] perm_plan make_perm_plan(std::span<const I> pi, bool inverse,
                                       const options& opts,
                                       std::size_t elem_size) {
  static_assert(std::is_integral_v<I>, "permutation indices are integers");
  const auto get = [](const void* p, std::uint64_t i) -> std::uint64_t {
    // Negative (signed-I) entries widen to huge values and fail the
    // classifier's range check, so no separate sign pass is needed.
    return static_cast<std::uint64_t>(static_cast<const I*>(p)[i]);
  };
  return detail::classify_permutation(pi.size(), +get, pi.data(), inverse,
                                      opts, elem_size);
}

}  // namespace inplace
