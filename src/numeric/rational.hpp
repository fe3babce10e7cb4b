// hypart — exact rational arithmetic.
//
// The projection phase of Sheu & Tai's Algorithm 1 produces points with
// rational coordinates (e.g. the projected dependence vectors of matrix
// multiplication are (-1/3, 2/3, -1/3)).  All geometry in this library is
// exact; Rational is the scalar type used whenever scaled-integer
// coordinates (see partition/projection.hpp) are not applicable.
#pragma once

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hypart {

/// Thrown on arithmetic overflow or division by zero in exact arithmetic.
class ArithmeticError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Checked int64 helpers.  All exact arithmetic in hypart funnels through
/// these so that silent wraparound can never corrupt a partition.
inline std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) throw ArithmeticError("int64 add overflow");
  return r;
}
inline std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) throw ArithmeticError("int64 sub overflow");
  return r;
}
inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) throw ArithmeticError("int64 mul overflow");
  return r;
}
inline std::int64_t checked_neg(std::int64_t a) {
  if (a == INT64_MIN) throw ArithmeticError("int64 negate overflow");
  return -a;
}
inline std::int64_t checked_cast(std::uint64_t a) {
  if (a > static_cast<std::uint64_t>(INT64_MAX)) throw ArithmeticError("int64 narrowing overflow");
  return static_cast<std::int64_t>(a);
}

}  // namespace detail

/// gcd that is safe for INT64_MIN and always returns a non-negative result.
std::int64_t gcd64(std::int64_t a, std::int64_t b);

/// lcm with overflow checking.  lcm64(0, x) == 0.
std::int64_t lcm64(std::int64_t a, std::int64_t b);

/// An exact rational number backed by checked 64-bit integers.
///
/// Invariants: den > 0 and gcd(|num|, den) == 1 (canonical form).  All
/// operations either produce a canonical result or throw ArithmeticError.
class Rational {
 public:
  constexpr Rational() = default;
  Rational(std::int64_t numerator) : num_(numerator), den_(1) {}  // NOLINT: implicit by design
  Rational(std::int64_t numerator, std::int64_t denominator);

  [[nodiscard]] std::int64_t num() const { return num_; }
  [[nodiscard]] std::int64_t den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_ == 0; }
  [[nodiscard]] bool is_integer() const { return den_ == 1; }
  [[nodiscard]] int sign() const { return num_ > 0 ? 1 : (num_ < 0 ? -1 : 0); }

  /// Exact conversion to integer; throws if not an integer.
  [[nodiscard]] std::int64_t to_integer() const;

  /// Approximate double value (for reporting only; never used in geometry).
  [[nodiscard]] double to_double() const { return static_cast<double>(num_) / static_cast<double>(den_); }

  [[nodiscard]] Rational abs() const;
  [[nodiscard]] Rational reciprocal() const;

  /// Largest integer <= value / smallest integer >= value.
  [[nodiscard]] std::int64_t floor() const;
  [[nodiscard]] std::int64_t ceil() const;

  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }
  friend Rational operator-(const Rational& a) { return {detail::checked_neg(a.num_), a.den_, NoNormalize{}}; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

  [[nodiscard]] std::string to_string() const;

 private:
  struct NoNormalize {};
  Rational(std::int64_t n, std::int64_t d, NoNormalize) : num_(n), den_(d) {}

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace hypart

template <>
struct std::hash<hypart::Rational> {
  std::size_t operator()(const hypart::Rational& r) const noexcept {
    std::size_t h = std::hash<std::int64_t>{}(r.num());
    h ^= std::hash<std::int64_t>{}(r.den()) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
};
