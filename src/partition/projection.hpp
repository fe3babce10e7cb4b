// hypart — projection phase of Algorithm 1 (paper Defs. 3-5).
//
// The index set is projected onto the zero-hyperplane Π·x = 0:
//     j^p = j - (j·Π / Π·Π) Π.
// Coordinates of j^p are rational with denominators dividing s = Π·Π, so we
// store the *scaled* integer point  ĵ = s·j - (j·Π)·Π ∈ Z^n  and carry s
// alongside.  All projection-phase geometry is exact integer arithmetic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/comp_structure.hpp"
#include "loop/iter_space.hpp"
#include "numeric/rat_matrix.hpp"
#include "schedule/hyperplane.hpp"

namespace hypart {

/// The geometry Algorithm 1 fixes from D and Π alone, before it touches a
/// point: s = Π·Π, the line direction u, the step stride σ, and every
/// dependence's scaled projection with its replication factor (Defs. 3-5
/// and Step 1).  The dense and line-based ProjectedStructure and the
/// GroupLattice each hold one, so all three groupings share one derivation.
class ProjectionFrame {
 public:
  /// Π must be nonzero; its validity for `deps` is the caller's to check.
  ProjectionFrame(std::vector<IntVec> deps, const TimeFunction& tf);

  [[nodiscard]] const TimeFunction& time_function() const { return tf_; }
  /// The scaling constant s = Π·Π.
  [[nodiscard]] std::int64_t scale() const { return scale_; }
  /// Minimal integer direction of the projection lines: Π / content(Π),
  /// keeping Π's sign so that Π·line_direction() > 0.
  [[nodiscard]] const IntVec& line_direction() const { return line_dir_; }
  /// Step increment between consecutive line points:
  /// Π·line_direction() = Π·Π / content(Π) > 0.
  [[nodiscard]] std::int64_t step_stride() const { return stride_; }

  /// Scaled projection of a point: s·x - (Π·x)·Π.
  [[nodiscard]] IntVec project(PointRef x) const;
  /// project(x) written to out[0..n), without allocating; returns Π·x.
  std::int64_t project_into(PointRef x, std::int64_t* out) const;

  /// The original dependence vectors (same order as projected_deps_scaled).
  [[nodiscard]] const std::vector<IntVec>& original_deps() const { return deps_; }
  /// Scaled projected dependence vectors, one per original dependence
  /// (duplicates and zeros preserved so indices line up with the original D).
  [[nodiscard]] const std::vector<IntVec>& projected_deps_scaled() const { return proj_deps_; }
  /// Rational coordinates of projected dependence `k`.
  [[nodiscard]] RatVec projected_dep_rational(std::size_t k) const;
  /// r_k of Algorithm 1 Step 1: the smallest positive integer such that
  /// r_k * d_k^p is integral (1 for dependences parallel to Π).
  [[nodiscard]] std::int64_t replication_factor(std::size_t k) const;
  /// rank(mat(D^p)) — the paper's β.
  [[nodiscard]] std::size_t projected_rank() const;

 private:
  TimeFunction tf_;
  std::int64_t scale_ = 1;
  IntVec line_dir_;
  std::int64_t stride_ = 1;
  std::vector<IntVec> deps_;
  std::vector<IntVec> proj_deps_;
};

/// The projected structure Q^p = (V^p, D^p) of Def. 5, in scaled-integer
/// coordinates.  Every projected point represents one projection line of
/// the original structure.
///
/// Both constructors project into one flat key buffer, sort it and group
/// equal keys into lines; nothing is hashed.  Point ids are lexicographic
/// ranks, so find_point is a binary search over points().  The projected
/// arc table (point, k) -> id of point + d_k^p is built once, by the same
/// lexicographic shift merge as the ComputationStructure's arc table; the
/// group graph, the lemma checks, the projected digraph and the line
/// bundles read it.  The dense constructor also keeps the vertex -> point
/// id table that Partition::build reads.
class ProjectedStructure {
 public:
  /// Each vertex of q is projected exactly once.
  ProjectedStructure(const ComputationStructure& q, const TimeFunction& tf);

  /// Build Q^p directly from a symbolic iteration space (rectangular or
  /// affine/slab-decomposed) without ever materializing J^n: lines are
  /// enumerated by their entry points (IterSpace::for_each_line) and
  /// populations come out in closed form.
  /// Produces bit-identical points()/line_population()/line_representative()
  /// to the dense constructor, in O(lines) instead of O(points).
  ProjectedStructure(const IterSpace& space, const TimeFunction& tf);

  /// The frame every projected quantity below derives from.
  [[nodiscard]] const ProjectionFrame& frame() const { return frame_; }
  [[nodiscard]] const TimeFunction& time_function() const { return frame_.time_function(); }
  /// The scaling constant s = Π·Π.
  [[nodiscard]] std::int64_t scale() const { return frame_.scale(); }
  [[nodiscard]] std::size_t dimension() const { return dim_; }

  /// Distinct projected points, lexicographically sorted (scaled coords).
  [[nodiscard]] const std::vector<IntVec>& points() const { return points_; }
  [[nodiscard]] std::size_t point_count() const { return points_.size(); }

  /// Rational (true) coordinates of projected point `id`.
  [[nodiscard]] RatVec point_rational(std::size_t id) const;

  /// The frame's dependence quantities (see ProjectionFrame).
  [[nodiscard]] const std::vector<IntVec>& projected_deps_scaled() const {
    return frame_.projected_deps_scaled();
  }
  [[nodiscard]] RatVec projected_dep_rational(std::size_t k) const {
    return frame_.projected_dep_rational(k);
  }
  [[nodiscard]] const std::vector<IntVec>& original_deps() const { return frame_.original_deps(); }
  [[nodiscard]] std::int64_t replication_factor(std::size_t k) const {
    return frame_.replication_factor(k);
  }
  [[nodiscard]] std::size_t projected_rank() const { return frame_.projected_rank(); }

  /// Id of the projected point for scaled coordinates; nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> find_point(const IntVec& scaled) const;

  /// Id of the projected point of original index point j (must project into
  /// V^p; throws otherwise).
  [[nodiscard]] std::size_t point_of(PointRef j) const;

  /// Projected-point id of every vertex of the structure this was built
  /// from, by vertex id (empty when built from an IterSpace).
  [[nodiscard]] const std::vector<std::uint32_t>& vertex_points() const { return vertex_point_; }

  /// Projected arc table entry with no target in V^p.
  static constexpr std::uint32_t kNoArc = ComputationStructure::kNoArc;
  /// Id of points()[id] + projected_deps_scaled()[k], or nullopt when that
  /// point is not in V^p (id itself when d_k^p = 0).  One table read.
  [[nodiscard]] std::optional<std::size_t> arc_target(std::size_t id, std::size_t k) const {
    const std::uint32_t e = arc_target_[id * projected_deps_scaled().size() + k];
    if (e == kNoArc) return std::nullopt;
    return e;
  }

  /// Number of original index points on the projection line of point `id`.
  [[nodiscard]] std::size_t line_population(std::size_t id) const { return line_pop_[id]; }

  /// Original-space coordinates of the first point (smallest step Π·j) on
  /// the projection line of point `id`.  With the stride, this pins the
  /// whole line: the members are rep + k*line_direction(), 0 <= k < pop.
  [[nodiscard]] const IntVec& line_representative(std::size_t id) const {
    return line_reps_.at(id);
  }

  [[nodiscard]] const IntVec& line_direction() const { return frame_.line_direction(); }
  [[nodiscard]] std::int64_t step_stride() const { return frame_.step_stride(); }

  /// Projected-structure arcs: (from point id, to point id, dep index) for
  /// every pair v_j^p = v_i^p + d_k^p with both ends in V^p and d_k^p != 0.
  [[nodiscard]] Digraph to_digraph() const;

 private:
  /// Adds one projection line (its scaled point, representative and
  /// population); lines must arrive in lexicographic point order.
  void add_line(const std::int64_t* point, IntVec rep, std::size_t pop);
  /// Fills arc_target_ from the sorted points (the shift merge).
  void build_arc_table();

  ProjectionFrame frame_;
  std::size_t dim_ = 0;
  std::vector<IntVec> points_;
  std::vector<std::size_t> line_pop_;
  std::vector<IntVec> line_reps_;
  std::vector<std::uint32_t> vertex_point_;  ///< dense only: vertex id -> point id
  std::vector<std::uint32_t> arc_target_;    ///< |V^p|·|D| entries
};

}  // namespace hypart
