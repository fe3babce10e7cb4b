// hypart — closed-form (symbolic) partition statistics.
//
// Everything the dense pipeline derives by walking O(points) dependence arcs
// is reproduced here by walking O(lines · deps) arc *bundles*: all arcs that
// share a source projection line and a dependence vector land on one target
// line, occupy consecutive Π-steps with the line stride, and their count is
// a line/domain intersection (contiguous even on affine slab-decomposed
// spaces, since the domain is convex) — so partition stats, TIG weights and
// per-step message volumes all follow without materializing a single index
// point.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "loop/iter_space.hpp"
#include "partition/blocks.hpp"

namespace hypart {

/// One (source line, dependence) bundle of dependence arcs.
struct LineDepArcs {
  std::size_t point = 0;       ///< source projected-point (line) id
  std::size_t target = 0;      ///< target projected-point id (== point when d ∥ Π)
  std::size_t dep = 0;         ///< index into ProjectedStructure::original_deps()
  std::int64_t count = 0;      ///< number of arcs (j, j+d) with j on the line, > 0
  std::int64_t first_step = 0; ///< Π·j of the earliest source point of the bundle
  // The bundle's source steps are first_step + k*step_stride(), 0 <= k < count.
};

/// Visit every nonempty arc bundle of the structure: for each projection
/// line and dependence vector, the number of in-box arcs and their step
/// range, all in closed form.  `ps` must be a projection of `space`.
void for_each_line_dep(const IterSpace& space, const ProjectedStructure& ps,
                       const std::function<void(const LineDepArcs&)>& visit);

/// Per-block iteration counts (block id == group id): the sum of the line
/// populations of the group's members, checked (ArithmeticError past
/// int64).  Matches the dense Partition::blocks()[b].iterations.size().
std::vector<std::int64_t> symbolic_block_sizes(const Grouping& grouping);

/// Closed-form PartitionStats — identical to compute_partition_stats on the
/// materialized structure, including block_comm edge weights.
PartitionStats compute_partition_stats(const IterSpace& space, const Grouping& grouping);

}  // namespace hypart
