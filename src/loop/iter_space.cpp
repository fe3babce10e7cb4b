#include "loop/iter_space.hpp"

#include <algorithm>
#include <stdexcept>

#include "loop/index_set.hpp"

namespace hypart {

namespace {

/// Points in the inclusive range [lo, hi], lo <= hi; ArithmeticError past int64.
std::int64_t box_extent(std::int64_t lo, std::int64_t hi) {
  return detail::checked_add(detail::checked_sub(hi, lo), 1);
}

/// Slab-count cap: beyond this the decomposition is no cheaper than the
/// dense enumeration it replaces, so construction refuses (std::length_error)
/// and callers fall back to the dense path.
constexpr std::size_t kMaxSlabs = std::size_t{1} << 22;

/// Directional derivative of an affine bound along u: sum_k coeffs[k]*u[k].
std::int64_t bound_slope(const AffineExpr& e, const IntVec& u) {
  std::int64_t s = 0;
  for (std::size_t k = 0; k < e.coeffs.size(); ++k) s += e.coeffs[k] * u[k];
  return s;
}

/// Append disjoint boxes covering box \ (other + u); other == nullptr means
/// the subtrahend is empty.  Per dimension, carve off the parts of the
/// remainder strictly below / above the shifted range, then restrict the
/// remainder to the overlap — at most two pieces per dimension, all disjoint.
void box_difference(const std::vector<DimBounds>& box, const std::vector<DimBounds>* other,
                    const IntVec& u, std::vector<std::vector<DimBounds>>& out) {
  if (other == nullptr) {
    out.push_back(box);
    return;
  }
  std::vector<DimBounds> cur = box;
  for (std::size_t j = 0; j < box.size(); ++j) {
    const std::int64_t slo = (*other)[j].first + u[j];
    const std::int64_t shi = (*other)[j].second + u[j];
    if (cur[j].first < slo) {
      std::vector<DimBounds> piece = cur;
      piece[j] = {cur[j].first, std::min(cur[j].second, slo - 1)};
      out.push_back(std::move(piece));
    }
    if (cur[j].second > shi) {
      std::vector<DimBounds> piece = cur;
      piece[j] = {std::max(cur[j].first, shi + 1), cur[j].second};
      out.push_back(std::move(piece));
    }
    cur[j] = {std::max(cur[j].first, slo), std::min(cur[j].second, shi)};
    if (cur[j].first > cur[j].second) return;  // remainder fully carved off
  }
  // cur lies inside other + u: those points are not entries.
}

}  // namespace

IterSpace::IterSpace(std::vector<DimBounds> bounds, std::vector<IntVec> dependences) {
  dims_.reserve(bounds.size());
  for (const auto& [lo, hi] : bounds) dims_.push_back({AffineExpr(lo), AffineExpr(hi)});
  deps_ = std::move(dependences);
  init();
}

IterSpace IterSpace::from_affine(std::vector<AffineDim> dims, std::vector<IntVec> dependences) {
  IterSpace s;
  s.dims_ = std::move(dims);
  s.deps_ = std::move(dependences);
  s.init();
  return s;
}

IterSpace::IterSpace(const LoopNest& nest, std::vector<IntVec> dependences) {
  dims_.reserve(nest.depth());
  for (const LoopDim& d : nest.dims()) dims_.push_back({d.lower, d.upper});
  deps_ = std::move(dependences);
  init();
}

IterSpace IterSpace::from_nest(const LoopNest& nest, const DependenceOptions& opts) {
  DependenceInfo info = analyze_dependences(nest, opts);
  return IterSpace(nest, info.distance_vectors());
}

void IterSpace::init() {
  const std::size_t n = dims_.size();
  if (n == 0) throw std::invalid_argument("IterSpace: empty bounds");
  for (const IntVec& d : deps_) {
    if (d.size() != n) throw std::invalid_argument("IterSpace: dependence dimension mismatch");
    if (is_zero(d)) throw std::invalid_argument("IterSpace: zero dependence vector");
  }
  // Bounds of dimension j may reference only dimensions k < j.
  std::vector<bool> referenced(n, false);
  for (std::size_t j = 0; j < n; ++j) {
    for (const BoundExpr* b : {&dims_[j].lower, &dims_[j].upper}) {
      for (const AffineExpr& e : b->terms) {
        if (e.coeffs.size() > n)
          throw std::invalid_argument("IterSpace: bound references out-of-range index");
        for (std::size_t k = 0; k < e.coeffs.size(); ++k) {
          if (e.coeffs[k] == 0) continue;
          if (k >= j)
            throw std::invalid_argument("IterSpace: bound references a non-outer index");
          referenced[k] = true;
        }
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k)
    if (referenced[k]) sliced_.push_back(k);

  // Enumerate the slabs: fix the sliced coordinates (ascending, so every
  // bound's referenced dimensions are already pinned), evaluate the
  // remaining bounds, keep the non-empty boxes.
  IntVec vals(n, 0);
  std::size_t visited = 0;
  std::function<void(std::size_t)> enumerate = [&](std::size_t si) {
    if (si == sliced_.size()) {
      if (++visited > kMaxSlabs)
        throw std::length_error(
            "IterSpace: slab decomposition exceeds the symbolic cap (too many sliced "
            "subdomains)");
      Slab s;
      s.key.reserve(sliced_.size());
      for (std::size_t d : sliced_) s.key.push_back(vals[d]);
      s.box.resize(n);
      std::int64_t points = 1;
      for (std::size_t j = 0; j < n; ++j) {
        if (referenced[j]) {
          s.box[j] = {vals[j], vals[j]};
        } else {
          s.box[j] = {dims_[j].lower.evaluate_lower(vals), dims_[j].upper.evaluate_upper(vals)};
          if (s.box[j].first > s.box[j].second) return;  // empty slab
        }
        points = detail::checked_mul(points, box_extent(s.box[j].first, s.box[j].second));
      }
      size_ = static_cast<std::uint64_t>(
          detail::checked_add(static_cast<std::int64_t>(size_), points));
      slab_index_.emplace(s.key, slabs_.size());
      slabs_.push_back(std::move(s));
      return;
    }
    const std::size_t d = sliced_[si];
    const std::int64_t lo = dims_[d].lower.evaluate_lower(vals);
    const std::int64_t hi = dims_[d].upper.evaluate_upper(vals);
    for (std::int64_t v = lo; v <= hi; ++v) {
      vals[d] = v;
      enumerate(si + 1);
    }
    vals[d] = 0;
  };
  enumerate(0);

  if (sliced_.empty()) {
    rect_bounds_.reserve(n);
    const IntVec zeros(n, 0);
    for (const AffineDim& d : dims_)
      rect_bounds_.emplace_back(d.lower.evaluate_lower(zeros), d.upper.evaluate_upper(zeros));
  }
}

const IterSpace::Slab* IterSpace::slab_at(const IntVec& key) const {
  auto it = slab_index_.find(key);
  return it == slab_index_.end() ? nullptr : &slabs_[it->second];
}

void IterSpace::for_each_slab_box(
    const std::function<void(const std::vector<DimBounds>&)>& visit) const {
  for (const Slab& s : slabs_) visit(s.box);
}

const std::vector<DimBounds>& IterSpace::bounds() const {
  if (!is_rectangular())
    throw std::logic_error("IterSpace::bounds: affine space has no single box");
  return rect_bounds_;
}

std::int64_t IterSpace::extent(std::size_t i) const {
  if (!is_rectangular())
    throw std::logic_error("IterSpace::extent: affine space has no single box");
  const auto& [lo, hi] = rect_bounds_.at(i);
  return hi < lo ? 0 : hi - lo + 1;
}

bool IterSpace::contains(const IntVec& p) const {
  if (p.size() != dims_.size()) return false;
  for (std::size_t j = 0; j < dims_.size(); ++j)
    if (p[j] < dims_[j].lower.evaluate_lower(p) || p[j] > dims_[j].upper.evaluate_upper(p))
      return false;
  return true;
}

std::uint64_t IterSpace::arc_count(const IntVec& d) const {
  if (d.size() != dims_.size())
    throw std::invalid_argument("IterSpace::arc_count: dimension mismatch");
  std::int64_t total = 0;
  IntVec target_key(sliced_.size());
  for (const Slab& s : slabs_) {
    for (std::size_t i = 0; i < sliced_.size(); ++i) target_key[i] = s.key[i] + d[sliced_[i]];
    const Slab* t = slab_at(target_key);
    if (t == nullptr) continue;
    std::int64_t prod = 1;
    for (std::size_t j = 0; j < dims_.size(); ++j) {
      const std::int64_t lo =
          std::max(s.box[j].first, detail::checked_sub(t->box[j].first, d[j]));
      const std::int64_t hi =
          std::min(s.box[j].second, detail::checked_sub(t->box[j].second, d[j]));
      if (hi < lo) {
        prod = 0;
        break;
      }
      prod = detail::checked_mul(prod, box_extent(lo, hi));
    }
    total = detail::checked_add(total, prod);
  }
  return static_cast<std::uint64_t>(total);
}

std::uint64_t IterSpace::total_arc_count() const {
  std::int64_t n = 0;
  for (const IntVec& d : deps_) n = detail::checked_add(n, detail::checked_cast(arc_count(d)));
  return static_cast<std::uint64_t>(n);
}

std::int64_t IterSpace::min_step(const IntVec& pi) const {
  if (pi.size() != dims_.size())
    throw std::invalid_argument("IterSpace::min_step: dimension mismatch");
  if (empty()) throw std::logic_error("IterSpace::min_step: empty space");
  std::int64_t best = INT64_MAX;
  for (const Slab& slab : slabs_) {
    std::int64_t s = 0;
    for (std::size_t i = 0; i < dims_.size(); ++i)
      s = detail::checked_add(
          s, detail::checked_mul(pi[i], pi[i] >= 0 ? slab.box[i].first : slab.box[i].second));
    best = std::min(best, s);
  }
  return best;
}

std::int64_t IterSpace::max_step(const IntVec& pi) const {
  if (pi.size() != dims_.size())
    throw std::invalid_argument("IterSpace::max_step: dimension mismatch");
  if (empty()) throw std::logic_error("IterSpace::max_step: empty space");
  std::int64_t best = INT64_MIN;
  for (const Slab& slab : slabs_) {
    std::int64_t s = 0;
    for (std::size_t i = 0; i < dims_.size(); ++i)
      s = detail::checked_add(
          s, detail::checked_mul(pi[i], pi[i] >= 0 ? slab.box[i].second : slab.box[i].first));
    best = std::max(best, s);
  }
  return best;
}

std::optional<std::pair<std::int64_t, std::int64_t>> IterSpace::line_range(
    const IntVec& p, const IntVec& u) const {
  const std::size_t n = dims_.size();
  if (p.size() != n || u.size() != n)
    throw std::invalid_argument("IterSpace::line_range: dimension mismatch");
  if (is_zero(u)) throw std::invalid_argument("IterSpace::line_range: zero direction");
  std::int64_t k_lo = INT64_MIN, k_hi = INT64_MAX;
  // Each bound is linear along the line: at p + k*u the constraint
  // lower_j(x) <= x_j (resp. x_j <= upper_j(x)) becomes c + k*m >= 0 with
  // the c, m below; m > 0 bounds k from below, m < 0 from above, m == 0 is
  // a constant feasibility test.
  auto apply = [&](std::int64_t c, std::int64_t m) -> bool {
    if (m > 0)
      k_lo = std::max(k_lo, ceil_div(-c, m));
    else if (m < 0)
      k_hi = std::min(k_hi, floor_div(-c, m));
    else if (c < 0)
      return false;
    return k_lo <= k_hi;
  };
  // Multi-term bounds contribute one half-line per term: max(l1,l2) <= x_j
  // is the conjunction of the per-term constraints, so intersecting them
  // keeps the run contiguous.
  for (std::size_t j = 0; j < n; ++j) {
    for (const AffineExpr& t : dims_[j].lower.terms)
      if (!apply(p[j] - t.evaluate(p), u[j] - bound_slope(t, u))) return std::nullopt;
    for (const AffineExpr& t : dims_[j].upper.terms)
      if (!apply(t.evaluate(p) - p[j], bound_slope(t, u) - u[j])) return std::nullopt;
  }
  // A bounded polyhedron cannot admit a half-infinite line; reaching here
  // with an open side would mean the nest's bounds do not close the domain.
  if (k_lo == INT64_MIN || k_hi == INT64_MAX)
    throw std::logic_error("IterSpace::line_range: unbounded line in a finite space");
  return std::make_pair(k_lo, k_hi);
}

LineForm IterSpace::line_form(const IntVec& origin, const std::vector<IntVec>& generators,
                              const IntVec& u) const {
  const std::size_t n = dims_.size();
  if (origin.size() != n || u.size() != n)
    throw std::invalid_argument("IterSpace::line_form: dimension mismatch");
  if (generators.empty() || generators.size() > 2)
    throw std::invalid_argument("IterSpace::line_form: one or two generators");
  for (const IntVec& g : generators)
    if (g.size() != n) throw std::invalid_argument("IterSpace::line_form: dimension mismatch");
  if (is_zero(u)) throw std::invalid_argument("IterSpace::line_form: zero direction");
  // A term t of dimension j is the half-space g·p + h >= 0 with
  // g = e_j - coeffs(t), h = -constant(t) for a lower bound and the negation
  // for an upper one (line_range's c and m, as linear functionals of p).
  // Substituting p = origin + Σ x_i·gen_i + k·u gives the row.
  LineForm form;
  IntVec g(n);
  auto add_row = [&](const AffineExpr& t, std::int64_t sign, std::size_t j) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t coeff = i < t.coeffs.size() ? t.coeffs[i] : 0;
      g[i] = detail::checked_mul(sign, detail::checked_sub(i == j ? 1 : 0, coeff));
    }
    LineForm::Row row;
    row.beta = detail::checked_add(dot(g, origin), detail::checked_mul(-sign, t.constant));
    row.alpha0 = dot(g, generators[0]);
    if (generators.size() == 2) row.alpha1 = dot(g, generators[1]);
    row.m = dot(g, u);
    form.rows_.push_back(row);
  };
  for (std::size_t j = 0; j < n; ++j) {
    for (const AffineExpr& t : dims_[j].lower.terms) add_row(t, 1, j);
    for (const AffineExpr& t : dims_[j].upper.terms) add_row(t, -1, j);
  }
  return form;
}

void IterSpace::for_each_line(
    const IntVec& u, const std::function<void(const IntVec&, std::int64_t)>& visit) const {
  const std::size_t n = dims_.size();
  if (u.size() != n) throw std::invalid_argument("IterSpace::for_each_line: dimension mismatch");
  if (is_zero(u)) throw std::invalid_argument("IterSpace::for_each_line: zero direction");
  if (empty()) return;

  // The entry points inside slab v are B_v \ (B_{v-u_S} + u): a point of
  // B_v leaves J along -u exactly when its predecessor p - u is outside the
  // only slab that could hold it (slab keys translate with u).  For a
  // rectangular space this degenerates to the classic B \ (B + u) boundary
  // faces.
  IntVec pred_key(sliced_.size());
  std::vector<std::vector<DimBounds>> pieces;
  for (const Slab& s : slabs_) {
    for (std::size_t i = 0; i < sliced_.size(); ++i) pred_key[i] = s.key[i] - u[sliced_[i]];
    const Slab* pred = slab_at(pred_key);
    pieces.clear();
    box_difference(s.box, pred == nullptr ? nullptr : &pred->box, u, pieces);

    for (const std::vector<DimBounds>& region : pieces) {
      // Odometer walk of the piece; the population is the closed-form run
      // length from the entry (line_range's k starts at 0 on an entry).
      IntVec p(n);
      for (std::size_t d = 0; d < n; ++d) p[d] = region[d].first;
      while (true) {
        auto range = line_range(p, u);
        visit(p, range->second + 1);
        std::size_t d = n;
        while (d > 0 && p[d - 1] == region[d - 1].second) {
          p[d - 1] = region[d - 1].first;
          --d;
        }
        if (d == 0) break;
        ++p[d - 1];
      }
    }
  }
}

}  // namespace hypart
