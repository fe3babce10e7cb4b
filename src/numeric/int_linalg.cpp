#include "numeric/int_linalg.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hypart {

using detail::checked_add;
using detail::checked_mul;
using detail::checked_neg;
using detail::checked_sub;

IntMat IntMat::from_rows(const std::vector<IntVec>& rows) {
  IntMat m(rows.size(), rows.empty() ? 0 : rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols()) throw std::invalid_argument("IntMat::from_rows: ragged rows");
    for (std::size_t c = 0; c < m.cols(); ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

IntMat IntMat::from_cols(const std::vector<IntVec>& cols) {
  IntMat m(cols.empty() ? 0 : cols.front().size(), cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].size() != m.rows()) throw std::invalid_argument("IntMat::from_cols: ragged columns");
    for (std::size_t r = 0; r < m.rows(); ++r) m.at(r, c) = cols[c][r];
  }
  return m;
}

IntMat IntMat::identity(std::size_t n) {
  IntMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

IntVec IntMat::row(std::size_t r) const {
  IntVec v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = at(r, c);
  return v;
}

IntVec IntMat::col(std::size_t c) const {
  IntVec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = at(r, c);
  return v;
}

IntMat IntMat::transposed() const {
  IntMat m(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) m.at(c, r) = at(r, c);
  return m;
}

IntMat IntMat::multiplied(const IntMat& o) const {
  if (cols_ != o.rows_) throw std::invalid_argument("IntMat::multiplied: shape mismatch");
  IntMat m(rows_, o.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      std::int64_t a = at(r, k);
      if (a == 0) continue;
      for (std::size_t c = 0; c < o.cols_; ++c)
        m.at(r, c) = checked_add(m.at(r, c), checked_mul(a, o.at(k, c)));
    }
  return m;
}

std::string IntMat::to_string() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) os << (c ? " " : "[") << at(r, c);
    os << "]" << (r + 1 == rows_ ? "]" : "\n");
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntMat& m) { return os << m.to_string(); }

IntVec add(const IntVec& a, const IntVec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("add: size mismatch");
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = checked_add(a[i], b[i]);
  return r;
}

IntVec sub(const IntVec& a, const IntVec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("sub: size mismatch");
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = checked_sub(a[i], b[i]);
  return r;
}

IntVec scale(const IntVec& a, std::int64_t k) {
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = checked_mul(a[i], k);
  return r;
}

IntVec negate(const IntVec& a) {
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = checked_neg(a[i]);
  return r;
}

std::vector<IntVec> PointRows::to_vectors() const {
  std::vector<IntVec> out;
  out.reserve(count_);
  for (PointRef p : *this) out.emplace_back(p.begin(), p.end());
  return out;
}

std::int64_t dot(const IntVec& a, const IntVec& b) { return dot(PointRef(a), PointRef(b)); }

std::int64_t dot(PointRef a, PointRef b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  std::int64_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s = checked_add(s, checked_mul(a[i], b[i]));
  return s;
}

bool is_zero(const IntVec& a) {
  return std::all_of(a.begin(), a.end(), [](std::int64_t x) { return x == 0; });
}

std::int64_t content(const IntVec& a) {
  std::int64_t g = 0;
  for (std::int64_t x : a) g = gcd64(g, x);
  return g;
}

IntVec primitive(const IntVec& a) {
  std::int64_t g = content(a);
  if (g == 0) return a;
  IntVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] / g;
  for (std::int64_t x : r) {
    if (x > 0) break;
    if (x < 0) {
      r = negate(r);
      break;
    }
  }
  return r;
}

std::string to_string(PointRef a) {
  std::string s = "(";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(a[i]);
  }
  return s + ")";
}

ExtGcd ext_gcd(std::int64_t a, std::int64_t b) {
  // Iterative extended Euclid; coefficients stay within int64 because
  // |x| <= |b|/(2g) and |y| <= |a|/(2g).
  std::int64_t old_r = a, r = b;
  std::int64_t old_s = 1, s = 0;
  std::int64_t old_t = 0, t = 1;
  while (r != 0) {
    std::int64_t q = old_r / r;
    std::int64_t tmp = old_r - q * r;
    old_r = r;
    r = tmp;
    tmp = old_s - q * s;
    old_s = s;
    s = tmp;
    tmp = old_t - q * t;
    old_t = t;
    t = tmp;
  }
  if (old_r < 0) {
    old_r = checked_neg(old_r);
    old_s = checked_neg(old_s);
    old_t = checked_neg(old_t);
  }
  return {old_r, old_s, old_t};
}

namespace {

// Column operations used by the Hermite normal form.
void col_swap(IntMat& m, std::size_t c1, std::size_t c2) {
  for (std::size_t r = 0; r < m.rows(); ++r) std::swap(m.at(r, c1), m.at(r, c2));
}
void col_negate(IntMat& m, std::size_t c) {
  for (std::size_t r = 0; r < m.rows(); ++r) m.at(r, c) = checked_neg(m.at(r, c));
}
// c_dst += k * c_src
void col_axpy(IntMat& m, std::size_t c_dst, std::size_t c_src, std::int64_t k) {
  if (k == 0) return;
  for (std::size_t r = 0; r < m.rows(); ++r)
    m.at(r, c_dst) = checked_add(m.at(r, c_dst), checked_mul(k, m.at(r, c_src)));
}
}  // namespace

HermiteResult hermite_normal_form(const IntMat& a) {
  IntMat h = a;
  IntMat u = IntMat::identity(a.cols());
  std::size_t pivot_col = 0;
  for (std::size_t row = 0; row < a.rows() && pivot_col < a.cols(); ++row) {
    // Zero out everything to the right of pivot_col in this row.
    bool any = false;
    for (std::size_t c = pivot_col; c < a.cols(); ++c) {
      if (h.at(row, c) != 0) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    for (std::size_t c = pivot_col + 1; c < a.cols(); ++c) {
      if (h.at(row, c) == 0) continue;
      // Apply identical transforms to h and u to maintain A*U == H.
      std::int64_t p = h.at(row, pivot_col);
      std::int64_t q = h.at(row, c);
      if (p == 0) {
        col_swap(h, pivot_col, c);
        col_swap(u, pivot_col, c);
        continue;
      }
      ExtGcd e = ext_gcd(p, q);
      std::int64_t pf = p / e.g;
      std::int64_t qf = q / e.g;
      for (IntMat* m : {&h, &u}) {
        for (std::size_t r = 0; r < m->rows(); ++r) {
          std::int64_t v1 = m->at(r, pivot_col);
          std::int64_t v2 = m->at(r, c);
          m->at(r, pivot_col) = checked_add(checked_mul(e.x, v1), checked_mul(e.y, v2));
          m->at(r, c) = checked_sub(checked_mul(pf, v2), checked_mul(qf, v1));
        }
      }
    }
    if (h.at(row, pivot_col) < 0) {
      col_negate(h, pivot_col);
      col_negate(u, pivot_col);
    }
    if (h.at(row, pivot_col) == 0) continue;
    // Reduce the entries to the left of the pivot into [0, pivot).
    std::int64_t piv = h.at(row, pivot_col);
    for (std::size_t c = 0; c < pivot_col; ++c) {
      std::int64_t v = h.at(row, c);
      std::int64_t q = v / piv;
      if (v % piv < 0) --q;  // floor division
      if (q != 0) {
        col_axpy(h, c, pivot_col, checked_neg(q));
        col_axpy(u, c, pivot_col, checked_neg(q));
      }
    }
    ++pivot_col;
  }
  return {h, u, pivot_col};
}

SmithResult smith_normal_form(const IntMat& a) {
  IntMat s = a;
  IntMat u = IntMat::identity(a.rows());
  IntMat v = IntMat::identity(a.cols());

  auto row_gcd_step = [&](std::size_t pivot, std::size_t r) {
    std::int64_t p = s.at(pivot, pivot);
    std::int64_t q = s.at(r, pivot);
    if (q == 0) return;
    if (p == 0) {
      for (std::size_t c = 0; c < s.cols(); ++c) std::swap(s.at(pivot, c), s.at(r, c));
      for (std::size_t c = 0; c < u.cols(); ++c) std::swap(u.at(pivot, c), u.at(r, c));
      return;
    }
    if (q % p == 0) {
      // Plain elimination: never disturbs the pivot row, so the alternating
      // row/column clearing terminates (the gcd transform below may pick a
      // Bezout pair that rewrites the pivot row even when p | q).
      std::int64_t f = q / p;
      for (IntMat* m : {&s, &u})
        for (std::size_t c = 0; c < m->cols(); ++c)
          m->at(r, c) = checked_sub(m->at(r, c), checked_mul(f, m->at(pivot, c)));
      return;
    }
    ExtGcd e = ext_gcd(p, q);
    std::int64_t pf = p / e.g;
    std::int64_t qf = q / e.g;
    for (IntMat* m : {&s, &u}) {
      for (std::size_t c = 0; c < m->cols(); ++c) {
        std::int64_t v1 = m->at(pivot, c);
        std::int64_t v2 = m->at(r, c);
        m->at(pivot, c) = checked_add(checked_mul(e.x, v1), checked_mul(e.y, v2));
        m->at(r, c) = checked_sub(checked_mul(pf, v2), checked_mul(qf, v1));
      }
    }
  };
  auto col_gcd_step = [&](std::size_t pivot, std::size_t c) {
    std::int64_t p = s.at(pivot, pivot);
    std::int64_t q = s.at(pivot, c);
    if (q == 0) return;
    if (p == 0) {
      col_swap(s, pivot, c);
      col_swap(v, pivot, c);
      return;
    }
    if (q % p == 0) {
      std::int64_t f = q / p;  // plain elimination, pivot column untouched
      for (IntMat* m : {&s, &v})
        for (std::size_t r = 0; r < m->rows(); ++r)
          m->at(r, c) = checked_sub(m->at(r, c), checked_mul(f, m->at(r, pivot)));
      return;
    }
    ExtGcd e = ext_gcd(p, q);
    std::int64_t pf = p / e.g;
    std::int64_t qf = q / e.g;
    for (IntMat* m : {&s, &v}) {
      for (std::size_t r = 0; r < m->rows(); ++r) {
        std::int64_t v1 = m->at(r, pivot);
        std::int64_t v2 = m->at(r, c);
        m->at(r, pivot) = checked_add(checked_mul(e.x, v1), checked_mul(e.y, v2));
        m->at(r, c) = checked_sub(checked_mul(pf, v2), checked_mul(qf, v1));
      }
    }
  };

  std::size_t n = std::min(a.rows(), a.cols());
  for (std::size_t k = 0; k < n; ++k) {
    // Find a nonzero pivot in the trailing submatrix.
    std::size_t pr = k, pc = k;
    bool found = false;
    for (std::size_t r = k; r < a.rows() && !found; ++r)
      for (std::size_t c = k; c < a.cols() && !found; ++c)
        if (s.at(r, c) != 0) {
          pr = r;
          pc = c;
          found = true;
        }
    if (!found) break;
    if (pr != k) {
      for (std::size_t c = 0; c < s.cols(); ++c) std::swap(s.at(k, c), s.at(pr, c));
      for (std::size_t c = 0; c < u.cols(); ++c) std::swap(u.at(k, c), u.at(pr, c));
    }
    if (pc != k) {
      col_swap(s, k, pc);
      col_swap(v, k, pc);
    }
    // Alternate row/column elimination until row k and column k are clear.
    bool dirty = true;
    while (dirty) {
      dirty = false;
      for (std::size_t r = k + 1; r < a.rows(); ++r)
        if (s.at(r, k) != 0) {
          row_gcd_step(k, r);
          dirty = true;
        }
      for (std::size_t c = k + 1; c < a.cols(); ++c)
        if (s.at(k, c) != 0) {
          col_gcd_step(k, c);
          dirty = true;
        }
    }
    if (s.at(k, k) < 0) {
      for (std::size_t c = 0; c < s.cols(); ++c) s.at(k, c) = checked_neg(s.at(k, c));
      for (std::size_t c = 0; c < u.cols(); ++c) u.at(k, c) = checked_neg(u.at(k, c));
    }
  }
  // Enforce the divisibility chain s_k | s_{k+1}.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    for (std::size_t j = k + 1; j < n; ++j) {
      std::int64_t a1 = s.at(k, k);
      std::int64_t a2 = s.at(j, j);
      if (a1 == 0 || a2 == 0) continue;
      if (a2 % a1 == 0) continue;
      // Standard trick: add column j to column k, then re-clear the 2x2 block.
      col_axpy(s, k, j, 1);
      col_axpy(v, k, j, 1);
      row_gcd_step(k, j);
      col_gcd_step(k, j);
      // The row step may reintroduce entries; loop conservatively.
      bool dirty = true;
      while (dirty) {
        dirty = false;
        if (s.at(j, k) != 0) {
          row_gcd_step(k, j);
          dirty = true;
        }
        if (s.at(k, j) != 0) {
          col_gcd_step(k, j);
          dirty = true;
        }
      }
      if (s.at(k, k) < 0) {
        for (std::size_t c = 0; c < s.cols(); ++c) s.at(k, c) = checked_neg(s.at(k, c));
        for (std::size_t c = 0; c < u.cols(); ++c) u.at(k, c) = checked_neg(u.at(k, c));
      }
      if (s.at(j, j) < 0) {
        for (std::size_t c = 0; c < s.cols(); ++c) s.at(j, c) = checked_neg(s.at(j, c));
        for (std::size_t c = 0; c < u.cols(); ++c) u.at(j, c) = checked_neg(u.at(j, c));
      }
    }
  }
  std::vector<std::int64_t> divisors;
  for (std::size_t k = 0; k < n; ++k)
    if (s.at(k, k) != 0) divisors.push_back(s.at(k, k));
  return {s, u, v, divisors};
}

std::size_t int_rank(const IntMat& a) { return hermite_normal_form(a).rank; }

std::int64_t int_det(const IntMat& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("int_det: matrix not square");
  std::size_t n = a.rows();
  if (n == 0) return 1;
  // Bareiss fraction-free elimination: exact, divisions are always exact.
  IntMat m = a;
  std::int64_t prev = 1;
  std::int64_t sign = 1;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (m.at(k, k) == 0) {
      std::size_t swap_row = k + 1;
      while (swap_row < n && m.at(swap_row, k) == 0) ++swap_row;
      if (swap_row == n) return 0;
      for (std::size_t c = 0; c < n; ++c) std::swap(m.at(k, c), m.at(swap_row, c));
      sign = -sign;
    }
    for (std::size_t i = k + 1; i < n; ++i)
      for (std::size_t j = k + 1; j < n; ++j) {
        std::int64_t num = checked_sub(checked_mul(m.at(i, j), m.at(k, k)),
                                       checked_mul(m.at(i, k), m.at(k, j)));
        m.at(i, j) = num / prev;  // exact by Bareiss invariant
      }
    prev = m.at(k, k);
  }
  return sign * m.at(n - 1, n - 1);
}

}  // namespace hypart
