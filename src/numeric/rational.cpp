#include "numeric/rational.hpp"

#include <ostream>

namespace hypart {

void detail::throw_arithmetic(const char* what) { throw ArithmeticError(what); }

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  if (a == INT64_MIN || b == INT64_MIN) {
    // |INT64_MIN| is not representable; handle by dividing out one factor
    // of two first (INT64_MIN is even).
    if (a == INT64_MIN && b == INT64_MIN) throw ArithmeticError("gcd64 overflow");
    if (a == INT64_MIN) {
      if (b == 0) throw ArithmeticError("gcd64 overflow");
      return gcd64(b, a % b);
    }
    if (a == 0) throw ArithmeticError("gcd64 overflow");
    return gcd64(a, b % a);
  }
  std::int64_t x = a < 0 ? -a : a;
  std::int64_t y = b < 0 ? -b : b;
  while (y != 0) {
    std::int64_t t = x % y;
    x = y;
    y = t;
  }
  return x;
}

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  std::int64_t g = gcd64(a, b);
  std::int64_t q = a / g;
  std::int64_t l = detail::checked_mul(q < 0 ? -q : q, b < 0 ? -b : b);
  return l;
}

Rational::Rational(std::int64_t numerator, std::int64_t denominator) {
  if (denominator == 0) throw ArithmeticError("Rational: zero denominator");
  if (denominator < 0) {
    numerator = detail::checked_neg(numerator);
    denominator = detail::checked_neg(denominator);
  }
  std::int64_t g = gcd64(numerator, denominator);
  if (g > 1) {
    numerator /= g;
    denominator /= g;
  }
  num_ = numerator;
  den_ = denominator;
}

std::int64_t Rational::to_integer() const {
  if (den_ != 1) throw ArithmeticError("Rational::to_integer: " + to_string() + " is not an integer");
  return num_;
}

Rational Rational::abs() const { return num_ < 0 ? -*this : *this; }

Rational Rational::reciprocal() const {
  if (num_ == 0) throw ArithmeticError("Rational::reciprocal of zero");
  return {den_, num_};
}

std::int64_t Rational::floor() const {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) --q;
  return q;
}

std::int64_t Rational::ceil() const {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) ++q;
  return q;
}

Rational& Rational::operator+=(const Rational& o) {
  // a/b + c/d with g = gcd(b, d): (a*(d/g) + c*(b/g)) / (b/g*d)
  std::int64_t g = gcd64(den_, o.den_);
  std::int64_t lhs = detail::checked_mul(num_, o.den_ / g);
  std::int64_t rhs = detail::checked_mul(o.num_, den_ / g);
  std::int64_t n = detail::checked_add(lhs, rhs);
  std::int64_t d = detail::checked_mul(den_ / g, o.den_);
  *this = Rational(n, d);
  return *this;
}

Rational& Rational::operator-=(const Rational& o) { return *this += -o; }

Rational& Rational::operator*=(const Rational& o) {
  // Cross-cancel before multiplying to keep intermediates small.
  std::int64_t g1 = gcd64(num_, o.den_);
  std::int64_t g2 = gcd64(o.num_, den_);
  std::int64_t n = detail::checked_mul(num_ / g1, o.num_ / g2);
  std::int64_t d = detail::checked_mul(den_ / g2, o.den_ / g1);
  num_ = n;
  den_ = d;
  return *this;
}

Rational& Rational::operator/=(const Rational& o) { return *this *= o.reciprocal(); }

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  // Compare a.num/a.den vs b.num/b.den via cross multiplication (checked).
  std::int64_t lhs = detail::checked_mul(a.num_, b.den_);
  std::int64_t rhs = detail::checked_mul(b.num_, a.den_);
  return lhs <=> rhs;
}

std::string Rational::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) { return os << r.to_string(); }

}  // namespace hypart
