// hypart — integer vectors/matrices and lattice normal forms.
//
// Dependence vectors, index points and scaled projected points are all
// integer vectors.  The Hermite and Smith normal forms drive the
// independent-partitioning baselines (GCD / minimum-distance family,
// paper §I): the number of independent blocks of a full-rank dependence
// lattice equals |det| of its basis, and residue classes modulo the lattice
// label the blocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "numeric/rational.hpp"

namespace hypart {

/// Dense integer vector (an index point, dependence vector, or time function).
using IntVec = std::vector<std::int64_t>;

/// Read-only view of one point's coordinates: an IntVec or one row of a
/// PointRows buffer.
using PointRef = std::span<const std::int64_t>;

/// Lexicographic order and equality of two points (a shorter point that is
/// a prefix of a longer one orders first, as for IntVec).
inline bool lex_less(PointRef a, PointRef b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}
inline bool same_point(PointRef a, PointRef b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// A set of points of one dimension, stored as the rows of one row-major
/// buffer (stride dim()): one allocation for the whole set instead of one
/// vector per point.  Rows are handed out as PointRef views.
class PointRows {
 public:
  PointRows() = default;
  explicit PointRows(std::size_t dim) : dim_(dim) {}

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] PointRef operator[](std::size_t i) const {
    return {coords_.data() + i * dim_, dim_};
  }

  void reserve(std::size_t rows) { coords_.reserve(rows * dim_); }
  /// Keeps the first `rows` rows, appending zero rows as needed.
  void resize(std::size_t rows) {
    coords_.resize(rows * dim_);
    count_ = rows;
  }
  /// Appends one row; p must have dim() coordinates.
  void push_back(PointRef p) {
    coords_.insert(coords_.end(), p.begin(), p.end());
    ++count_;
  }

  /// Every row as its own IntVec (for tests and printing).
  [[nodiscard]] std::vector<IntVec> to_vectors() const;

  /// Range-for over the rows, in row order.
  class const_iterator {
   public:
    const_iterator(const PointRows* rows, std::size_t i) : rows_(rows), i_(i) {}
    PointRef operator*() const { return (*rows_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const PointRows* rows_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, count_}; }

 private:
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
  std::vector<std::int64_t> coords_;
};

/// Dense row-major integer matrix.
class IntMat {
 public:
  IntMat() = default;
  IntMat(std::size_t rows, std::size_t cols, std::int64_t fill = 0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from a list of rows; all rows must have equal length.
  static IntMat from_rows(const std::vector<IntVec>& rows);
  /// Build from a list of columns (e.g. a dependence matrix whose columns
  /// are dependence vectors, as in the paper's Example 2).
  static IntMat from_cols(const std::vector<IntVec>& cols);
  static IntMat identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  std::int64_t& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] std::int64_t at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] IntVec row(std::size_t r) const;
  [[nodiscard]] IntVec col(std::size_t c) const;

  [[nodiscard]] IntMat transposed() const;
  [[nodiscard]] IntMat multiplied(const IntMat& o) const;

  friend bool operator==(const IntMat& a, const IntMat& b) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int64_t> data_;
};

std::ostream& operator<<(std::ostream& os, const IntMat& m);

// ---- vector operations ----------------------------------------------------

IntVec add(const IntVec& a, const IntVec& b);
IntVec sub(const IntVec& a, const IntVec& b);
IntVec scale(const IntVec& a, std::int64_t k);
IntVec negate(const IntVec& a);
std::int64_t dot(const IntVec& a, const IntVec& b);
/// Checked dot product of two views (ArithmeticError on int64 overflow).
std::int64_t dot(PointRef a, PointRef b);
bool is_zero(const IntVec& a);

/// gcd of all components (0 for the zero vector).
std::int64_t content(const IntVec& a);

/// Divide every component by its content, keeping the sign of the first
/// nonzero component positive.  Returns the zero vector unchanged.
IntVec primitive(const IntVec& a);

std::string to_string(PointRef a);

// ---- extended gcd ----------------------------------------------------------

struct ExtGcd {
  std::int64_t g;  ///< gcd(a, b) >= 0
  std::int64_t x;  ///< Bezout coefficient of a
  std::int64_t y;  ///< Bezout coefficient of b
};
ExtGcd ext_gcd(std::int64_t a, std::int64_t b);

// ---- normal forms ----------------------------------------------------------

/// Result of a column-style Hermite normal form computation: H = A * U with
/// U unimodular, H lower-triangular-ish with pivot columns first.
struct HermiteResult {
  IntMat h;          ///< the Hermite normal form (same shape as input)
  IntMat u;          ///< unimodular column-transform, A*U == H
  std::size_t rank;  ///< number of nonzero columns of h
};

/// Column Hermite normal form of an integer matrix (columns are generators
/// of a lattice).  Pivots are positive; entries right of a pivot are zero;
/// entries in a pivot row left of the pivot are reduced to [0, pivot).
HermiteResult hermite_normal_form(const IntMat& a);

/// Smith normal form: S = U * A * V with U, V unimodular and S diagonal with
/// s1 | s2 | ... | sr, the elementary divisors.
struct SmithResult {
  IntMat s;
  IntMat u;
  IntMat v;
  std::vector<std::int64_t> divisors;  ///< nonzero diagonal entries, each dividing the next
};
SmithResult smith_normal_form(const IntMat& a);

/// Rank of an integer matrix (computed exactly over Q).
std::size_t int_rank(const IntMat& a);

/// Determinant of a square integer matrix (exact, fraction-free Bareiss).
std::int64_t int_det(const IntMat& a);

}  // namespace hypart
