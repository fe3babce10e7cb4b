// hypart — enumeration of the index set J^n of a loop nest.
//
// J^n = { (i1..in) | l_j <= i_j <= u_j } with bounds that may depend on
// outer indices (paper Section II).  The set is the vertex set of the
// computational structure and the domain of the partitioning algorithm.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "loop/loop_nest.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart {

/// A view of the iteration domain of a LoopNest.
class IndexSet {
 public:
  explicit IndexSet(const LoopNest& nest);

  [[nodiscard]] std::size_t depth() const { return dims_.size(); }

  /// Invoke `visit` for every index point in lexicographic order.
  void for_each(const std::function<void(const IntVec&)>& visit) const;

  /// Materialize all index points, in lexicographic order, as the rows of
  /// one flat buffer.
  [[nodiscard]] PointRows points() const;

  /// Number of points, without materializing.
  [[nodiscard]] std::uint64_t size() const;

  /// Membership test (bounds evaluated with the point's own outer indices).
  [[nodiscard]] bool contains(const IntVec& point) const;

  /// Inclusive bounds of dimension `j` given the outer indices
  /// (point[0..j-1] are read; deeper entries ignored).
  [[nodiscard]] std::int64_t lower(std::size_t j, const IntVec& outer) const;
  [[nodiscard]] std::int64_t upper(std::size_t j, const IntVec& outer) const;

  /// For a rectangular nest: the constant bounds per dimension.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> rectangular_bounds() const;

 private:
  std::vector<LoopDim> dims_;
};

}  // namespace hypart
