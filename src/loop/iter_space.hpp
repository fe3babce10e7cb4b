// hypart — closed-form affine iteration space (the symbolic spine).
//
// IterSpace represents the index set J^n of a loop nest whose bounds are
// affine in the outer indices — never as a point list.  Because every
// dimension contributes one affine lower and one affine upper bound, J is
// the integer hull of a convex polyhedron, so a line meets J in one
// contiguous run and every quantity the partitioning pipeline needs has a
// closed form over a *slab decomposition*:
//
//   Let S be the set of dimensions referenced by some other dimension's
//   bound (the "sliced" dimensions; for a rectangular nest S is empty).
//   Fixing the S-coordinates to concrete values v makes every remaining
//   bound constant, so J splits into disjoint rectangular slabs
//   J = ⨆_v B_v, one box per feasible v, keyed by v.  Innermost dimensions
//   are never sliced (nothing can reference them), so the number of slabs
//   is O(N^{n-1}) — the same order as the number of projection lines, not
//   the number of points.
//
// Per-slab closed forms, summed over slabs (docs/affine-spaces.md derives
// each one and works the triangular-matvec example):
//   * point count        — product of extents of B_v;
//   * arc count of dep d — overlap volume of B_v with B_{v+d_S} shifted by
//                          -d, where v+d_S is the *unique* slab that can
//                          receive arcs from B_v (slab keys translate with
//                          the dependence);
//   * schedule span      — Π·x extremes are attained at slab corners;
//   * line enumeration   — the entry points of direction u inside B_v are
//                          exactly B_v \ (B_{v-u_S} + u), a set difference
//                          of boxes that splits into ≤ 2n disjoint boxes.
// Stages that accept an IterSpace therefore run in O(lines + slabs·n + deps)
// instead of O(points); see docs/iterspace.md for the box-level derivations
// and the dense-fallback rules.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "loop/dependence.hpp"
#include "loop/loop_nest.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart {

/// Floor/ceil integer division for arbitrary signs (b != 0); C++ `/`
/// truncates toward zero, which is wrong for the negative line-range bounds.
[[nodiscard]] constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  return (a % b != 0 && ((a < 0) == (b < 0))) ? q + 1 : q;
}

/// Inclusive per-dimension bounds [lower, upper].
using DimBounds = std::pair<std::int64_t, std::int64_t>;

/// One dimension `for I_j = lower to upper` with bounds affine in the outer
/// indices I_1..I_{j-1} (the paper's loop model, Section II).  A bound may
/// carry several affine terms (BoundExpr): the lower bound is their max,
/// the upper their min.  Each term is an independent half-space, so the
/// space stays convex and every slab/line closed form applies per term —
/// the comparison hyperplane of e.g. `j <= min(i, n-i)` is where the
/// active term switches, and the slab enumeration splits there naturally
/// because the pinned outer coordinates decide the min pointwise.
struct AffineDim {
  BoundExpr lower;
  BoundExpr upper;
};

/// The bounds of an IterSpace compiled along a family of parallel lines
/// p(x) + k·u whose anchors p(x) = origin + x_0·g_0 + x_1·g_1 are affine in a
/// line coordinate x of one or two components (IterSpace::line_form builds
/// it).  Along such a line every bound term is affine in both x and k, so
/// each term becomes one row
///
///     (α·x + β) + k·m ≥ 0,
///
/// and range(x) is exactly line_range(p(x), u): rows with m > 0 bound k from
/// below, m < 0 from above, m == 0 test feasibility.  Evaluating a line costs
/// one pass over the rows and no bound re-evaluation.  A row's bound on k is
/// affine in x up to rounding, so the lines where the binding row changes
/// are the breakpoints of the line populations.  Row arithmetic is checked:
/// a value outside int64 throws ArithmeticError.
class LineForm {
 public:
  /// The k-interval of line x; nullopt when the line misses the space.
  /// Throws std::logic_error on a populated line unbounded in k, like
  /// line_range.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>> range(
      std::int64_t x0, std::int64_t x1 = 0) const {
    std::int64_t k_lo = INT64_MIN, k_hi = INT64_MAX;
    for (const Row& r : rows_) {
      const std::int64_t c = detail::checked_add(
          detail::checked_add(r.beta, detail::checked_mul(r.alpha0, x0)),
          detail::checked_mul(r.alpha1, x1));
      if (r.m > 0)
        k_lo = std::max(k_lo, r.m == 1 ? detail::checked_neg(c)
                                       : ceil_div(detail::checked_neg(c), r.m));
      else if (r.m < 0)
        k_hi = std::min(k_hi, r.m == -1 ? c : floor_div(detail::checked_neg(c), r.m));
      else if (c < 0)
        return std::nullopt;
    }
    if (k_lo > k_hi) return std::nullopt;
    if (k_lo == INT64_MIN || k_hi == INT64_MAX)
      throw std::logic_error("LineForm::range: unbounded line in a finite space");
    return std::make_pair(k_lo, k_hi);
  }

 private:
  friend class IterSpace;
  struct Row {
    std::int64_t alpha0 = 0;  ///< coefficient of x_0
    std::int64_t alpha1 = 0;  ///< coefficient of x_1 (0 for one-component x)
    std::int64_t beta = 0;    ///< constant term
    std::int64_t m = 0;       ///< slope in k
  };
  std::vector<Row> rows_;  ///< one per bound term, dimension-major, lower before upper
};

class IterSpace {
 public:
  /// Build a rectangular space from explicit bounds and constant dependence
  /// vectors (the same validation rules as ComputationStructure: nonzero,
  /// dimension-matched).
  IterSpace(std::vector<DimBounds> bounds, std::vector<IntVec> dependences);

  /// Build an affine space: each dimension's bounds may reference earlier
  /// dimensions (coefficients on later indices must be zero).  Throws
  /// std::invalid_argument on malformed bounds/dependences and
  /// std::length_error when the slab decomposition would exceed the
  /// internal cap (callers fall back to the dense path).  A named factory
  /// because braced dimension lists would be ambiguous with the DimBounds
  /// constructor.
  static IterSpace from_affine(std::vector<AffineDim> dims, std::vector<IntVec> dependences);

  /// Build from any nest with affine bounds plus externally analyzed
  /// dependence vectors (what run_pipeline uses).
  IterSpace(const LoopNest& nest, std::vector<IntVec> dependences);

  /// Build from a nest, analyzing dependences automatically.
  static IterSpace from_nest(const LoopNest& nest, const DependenceOptions& opts = {});

  [[nodiscard]] std::size_t dimension() const { return dims_.size(); }
  [[nodiscard]] const std::vector<AffineDim>& affine_dims() const { return dims_; }
  [[nodiscard]] const std::vector<IntVec>& dependences() const { return deps_; }

  /// True when no dimension's bounds reference another (single-box space).
  [[nodiscard]] bool is_rectangular() const { return sliced_.empty(); }
  /// Dimensions some bound references, ascending (empty iff rectangular).
  [[nodiscard]] const std::vector<std::size_t>& sliced_dims() const { return sliced_; }
  /// Number of non-empty boxes in the slab decomposition (1 for a non-empty
  /// rectangular space).
  [[nodiscard]] std::size_t slab_count() const { return slab_count_; }

  /// Constant per-dimension bounds; throws std::logic_error unless
  /// is_rectangular().
  [[nodiscard]] const std::vector<DimBounds>& bounds() const;

  /// Number of index points (sum of per-slab extent products), without
  /// enumeration.  Construction throws ArithmeticError when it, or any
  /// slab's extent product, leaves int64.
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Points along dimension `i` (0 when the range is empty); rectangular
  /// spaces only — affine dimensions have no single extent.
  [[nodiscard]] std::int64_t extent(std::size_t i) const;

  /// Membership is direct polyhedron evaluation: p is inside iff every
  /// dimension's bounds, evaluated at p's own outer coordinates, admit it.
  [[nodiscard]] bool contains(const IntVec& p) const;

  /// #{ j : j in J and j + d in J } — the arc count of one dependence.
  /// Arcs leaving slab v land in the unique slab keyed v + d_S; the count
  /// is the overlap volume of B_v with B_{v+d_S} translated by -d (on a box
  /// this reduces to prod_i max(0, extent_i - |d_i|)).  ArithmeticError
  /// when the count leaves int64 (as total_arc_count's sum does).
  [[nodiscard]] std::uint64_t arc_count(const IntVec& d) const;

  /// Total dependence arcs over all dependence vectors (the dense
  /// ComputationStructure::dependence_arc_count, without the points).
  [[nodiscard]] std::uint64_t total_arc_count() const;

  /// The extremes (min, max) of Π·x over J, attained at slab corners and
  /// found in one pass over the slabs; throws std::logic_error when the
  /// space is empty and ArithmeticError when a corner's Π·x leaves int64.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> step_range(const IntVec& pi) const;

  /// The k-interval {k : p + k*u in J} of the line through p with direction
  /// u (u != 0; p itself need not be inside); nullopt when the line misses
  /// J.  Each affine bound `lower_j(x) <= x_j <= upper_j(x)` is linear along
  /// the line, so it contributes one half-line of feasible k; J convex
  /// keeps the intersection contiguous.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>> line_range(
      const IntVec& p, const IntVec& u) const;

  /// Compile the bounds along the lines p(x) + k·u with anchors
  /// p(x) = origin + Σ_i x_i·generators[i] (one or two generators): the
  /// returned LineForm's range(x) equals line_range(p(x), u).  O(terms·n).
  [[nodiscard]] LineForm line_form(const IntVec& origin, const std::vector<IntVec>& generators,
                                   const IntVec& u) const;

  /// Visit the constant box of every slab (per-dimension inclusive bounds;
  /// exactly one box for a non-empty rectangular space).  The boxes
  /// partition J, so per-slab closed forms summed over this visitation
  /// cover the whole space — partition/group_lattice.cpp derives each
  /// slab's line-index interval this way.
  void for_each_slab_box(const std::function<void(const std::vector<DimBounds>&)>& visit) const;

  /// Enumerate every line of direction u meeting J exactly once, visiting
  /// its entry point: the unique line point with entry - u outside J (the
  /// smallest point along +u).  A caller that needs the line's population
  /// reads it as line_range(entry, u)->second + 1.  Entries inside slab v
  /// are B_v \ (B_{v-u_S} + u), decomposed into <= 2n disjoint boxes per
  /// slab; cost O(lines + slabs * n) versus the O(points) dense projection.
  void for_each_line(const IntVec& u, const std::function<void(const IntVec&)>& visit) const;

 private:
  IterSpace() = default;  // for the named factories

  void init();
  /// Slab s of the decomposition: its S-coordinates (its key, in
  /// sliced_dims() order) and its per-dimension constant bounds.
  [[nodiscard]] const std::int64_t* slab_key(std::size_t s) const {
    return slab_keys_.data() + s * sliced_.size();
  }
  [[nodiscard]] const DimBounds* slab_box(std::size_t s) const {
    return slab_boxes_.data() + s * dims_.size();
  }
  /// The slab keyed `key` (sliced_dims().size() values), slab_count() when
  /// that slab is empty; binary search, since init() enumerates the keys in
  /// ascending order.
  [[nodiscard]] std::size_t slab_at(const std::int64_t* key) const;

  std::vector<AffineDim> dims_;
  std::vector<IntVec> deps_;
  std::vector<std::size_t> sliced_;
  /// The non-empty slabs in ascending key order, flat: slab_count_ keys of
  /// sliced_.size() values and boxes of dimension() bounds, so the
  /// decomposition allocates nothing per slab.
  std::vector<std::int64_t> slab_keys_;
  std::vector<DimBounds> slab_boxes_;
  std::size_t slab_count_ = 0;
  std::vector<DimBounds> rect_bounds_;     ///< populated iff is_rectangular()
  std::uint64_t size_ = 0;
};

}  // namespace hypart
