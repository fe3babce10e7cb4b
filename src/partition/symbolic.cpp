#include "partition/symbolic.hpp"

#include <algorithm>
#include <stdexcept>

namespace hypart {

void for_each_line_dep(const IterSpace& space, const ProjectedStructure& ps,
                       const std::function<void(const LineDepArcs&)>& visit) {
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

std::vector<std::int64_t> symbolic_block_sizes(const Grouping& grouping) {
  const ProjectedStructure& ps = grouping.projected();
  std::vector<std::int64_t> sizes(grouping.group_count(), 0);
  for (std::size_t b = 0; b < grouping.group_count(); ++b)
    for (std::size_t pid : grouping.groups()[b].members())
      sizes[b] = detail::checked_add(sizes[b], static_cast<std::int64_t>(ps.line_population(pid)));
  return sizes;
}

PartitionStats compute_partition_stats(const IterSpace& space, const Grouping& grouping) {
  const ProjectedStructure& ps = grouping.projected();
  PartitionStats stats;
  stats.total_arcs = static_cast<std::size_t>(space.total_arc_count());
  stats.block_comm = Digraph(grouping.group_count());
  for_each_line_dep(space, ps, [&](const LineDepArcs& bundle) {
    std::size_t bs = grouping.group_of_point(bundle.point);
    std::size_t bd = grouping.group_of_point(bundle.target);
    if (bs == bd) return;
    stats.interblock_arcs += static_cast<std::size_t>(bundle.count);
    stats.block_comm.add_edge(bs, bd, bundle.count);
  });
  stats.intrablock_arcs = stats.total_arcs - stats.interblock_arcs;
  return stats;
}

}  // namespace hypart
