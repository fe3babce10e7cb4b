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

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
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
template <class Visit>
void for_each_line_dep(const IterSpace& space, const ProjectedStructure& ps, Visit&& visit) {
  const TimeFunction& tf = ps.time_function();
  const IntVec& u = ps.line_direction();
  const std::int64_t sigma = ps.step_stride();
  const std::vector<IntVec>& deps = ps.original_deps();

  for (std::size_t pid = 0; pid < ps.point_count(); ++pid) {
    const IntVec& rep = ps.line_representative(pid);
    const std::int64_t pop = static_cast<std::int64_t>(ps.line_population(pid));
    const std::int64_t rep_step = tf.step_of(rep);
    for (std::size_t k = 0; k < deps.size(); ++k) {
      // Sources are j = rep + a*u, 0 <= a < pop; the arc (j, j+d) exists iff
      // rep + d + a*u is also in the space — a contiguous sub-interval of a
      // (the domain is convex, even when affine slabs are involved).
      std::optional<std::pair<std::int64_t, std::int64_t>> range =
          space.line_range(add(rep, deps[k]), u);
      if (!range) continue;
      std::int64_t a0 = std::max<std::int64_t>(range->first, 0);
      std::int64_t a1 = std::min<std::int64_t>(range->second, pop - 1);
      if (a0 > a1) continue;
      LineDepArcs bundle;
      bundle.point = pid;
      bundle.dep = k;
      bundle.count = a1 - a0 + 1;
      bundle.first_step = rep_step + a0 * sigma;
      // Projection is linear, so every arc of the bundle lands on the same
      // target line: proj(j + d) = proj(j) + proj(d).
      std::optional<std::size_t> target = ps.arc_target(pid, k);
      if (!target)
        throw std::logic_error(
            "for_each_line_dep: in-space dependence target projects outside V^p");
      bundle.target = *target;
      visit(bundle);
    }
  }
}

/// Per-block iteration counts (block id == group id): the sum of the line
/// populations of the group's members, checked (ArithmeticError past
/// int64).  Matches the dense Partition::blocks()[b].iterations.size().
std::vector<std::int64_t> symbolic_block_sizes(const Grouping& grouping);

/// Closed-form PartitionStats — identical to compute_partition_stats on the
/// materialized structure, including block_comm edge weights.
PartitionStats compute_partition_stats(const IterSpace& space, const Grouping& grouping);

}  // namespace hypart
