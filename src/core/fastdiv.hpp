#pragma once
// Arithmetic strength reduction (paper Section 4.4): the index equations
// evaluate `x / d` and `x % d` with the same handful of divisors (m, n, a,
// b, c) millions of times.  Following Warren's fixed-point-reciprocal
// technique [Hacker's Delight] in the formulation of Lemire et al., we
// amortize one reciprocal per divisor and turn every division into a
// multiply-high.
//
// The reciprocal trick is exact when both dividend and divisor fit in 32
// bits; for larger dividends the functor falls back to hardware division
// (a predictable, almost-never-taken branch), so correctness never depends
// on the caller's extents.

#include <cstdint>
#include <stdexcept>

namespace inplace {

/// Strength-reduced division/modulus by a fixed 32-bit divisor.
class fast_divmod {
 public:
  /// Prepares the fixed-point reciprocal M = ceil(2^64 / d).
  explicit constexpr fast_divmod(std::uint64_t d) : d_(d) {
    if (d == 0) {
      throw std::invalid_argument("fast_divmod: divisor must be nonzero");
    }
    if (d >> 32 != 0) {
      magic_ = 0;  // divisor too wide for the reciprocal path
    } else if (d == 1) {
      magic_ = 0;  // 2^64/1 does not fit in 64 bits; handled explicitly
    } else {
      magic_ = ~std::uint64_t{0} / d + 1;
    }
  }

  /// Identity divisor; useful as a default member value.
  constexpr fast_divmod() : fast_divmod(1) {}

  [[nodiscard]] constexpr std::uint64_t divisor() const { return d_; }

  [[nodiscard]] constexpr std::uint64_t div(std::uint64_t x) const {
    if (d_ == 1) {
      return x;
    }
    if (magic_ == 0 || (x >> 32) != 0) {
      return x / d_;  // exactness of the reciprocal requires 32-bit operands
    }
    return mulhi(magic_, x);
  }

  [[nodiscard]] constexpr std::uint64_t mod(std::uint64_t x) const {
    if (d_ == 1) {
      return 0;
    }
    if (magic_ == 0 || (x >> 32) != 0) {
      return x % d_;
    }
    // lowbits = frac(x / d) in 0.64 fixed point; scaling by d recovers the
    // remainder exactly for 32-bit operands (Lemire's "fastmod").
    const std::uint64_t lowbits = magic_ * x;
    return mulhi(lowbits, d_);
  }

  /// Quotient and remainder in one call (one multiply saved vs div+mod).
  struct qr {
    std::uint64_t quot;
    std::uint64_t rem;
  };

  [[nodiscard]] constexpr qr divmod(std::uint64_t x) const {
    if (d_ == 1) {
      return {x, 0};
    }
    if (magic_ == 0 || (x >> 32) != 0) {
      return {x / d_, x % d_};
    }
    const std::uint64_t q = mulhi(magic_, x);
    return {q, x - q * d_};
  }

 private:
  static constexpr std::uint64_t mulhi(std::uint64_t x, std::uint64_t y) {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(x) * y) >> 64);
  }

  std::uint64_t magic_ = 0;
  std::uint64_t d_ = 1;
};

/// Hardware division: the reference policy the tests and the Section 4.4
/// ablation bench compare fast_divmod against.  No engine runs it.
class plain_divmod {
 public:
  explicit constexpr plain_divmod(std::uint64_t d) : d_(d) {
    if (d == 0) {
      throw std::invalid_argument("plain_divmod: divisor must be nonzero");
    }
  }

  constexpr plain_divmod() : plain_divmod(1) {}

  [[nodiscard]] constexpr std::uint64_t divisor() const { return d_; }
  [[nodiscard]] constexpr std::uint64_t div(std::uint64_t x) const {
    return x / d_;
  }
  [[nodiscard]] constexpr std::uint64_t mod(std::uint64_t x) const {
    return x % d_;
  }

  struct qr {
    std::uint64_t quot;
    std::uint64_t rem;
  };

  [[nodiscard]] constexpr qr divmod(std::uint64_t x) const {
    return {x / d_, x % d_};
  }

 private:
  std::uint64_t d_ = 1;
};

}  // namespace inplace
