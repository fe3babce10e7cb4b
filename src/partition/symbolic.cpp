#include "partition/symbolic.hpp"

#include <algorithm>
#include <stdexcept>

namespace hypart {

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
