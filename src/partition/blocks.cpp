#include "partition/blocks.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace hypart {

Partition Partition::build(const ComputationStructure& q, const Grouping& grouping) {
  const ProjectedStructure& ps = grouping.projected();
  Partition part;
  part.blocks_.resize(grouping.group_count());
  for (std::size_t b = 0; b < part.blocks_.size(); ++b) part.blocks_[b].group_id = b;
  part.vertex_block_.assign(q.vertices().size(), SIZE_MAX);

  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid) {
    std::size_t pid = ps.point_of(q.vertices()[vid]);
    std::size_t gid = grouping.group_of_point(pid);
    part.vertex_block_[vid] = gid;
    part.blocks_[gid].iterations.push_back(vid);
  }
  return part;
}

Partition Partition::from_labels(const ComputationStructure& q,
                                 const std::vector<std::size_t>& labels) {
  if (labels.size() != q.vertices().size())
    throw std::invalid_argument("Partition::from_labels: label count mismatch");
  Partition part;
  part.vertex_block_.assign(labels.size(), SIZE_MAX);
  std::unordered_map<std::size_t, std::size_t> renumber;
  for (std::size_t vid = 0; vid < labels.size(); ++vid) {
    auto [it, inserted] = renumber.try_emplace(labels[vid], renumber.size());
    std::size_t b = it->second;
    if (b == part.blocks_.size()) part.blocks_.push_back({b, {}});
    part.vertex_block_[vid] = b;
    part.blocks_[b].iterations.push_back(vid);
  }
  return part;
}

std::size_t Partition::block_of(std::size_t vertex_id) const {
  if (vertex_id >= vertex_block_.size() || vertex_block_[vertex_id] == SIZE_MAX)
    throw std::out_of_range("Partition::block_of: unknown vertex id");
  return vertex_block_[vertex_id];
}

std::size_t Partition::max_block_size() const {
  std::size_t m = 0;
  for (const PartitionBlock& b : blocks_) m = std::max(m, b.iterations.size());
  return m;
}

std::size_t Partition::min_block_size() const {
  if (blocks_.empty()) return 0;
  std::size_t m = SIZE_MAX;
  for (const PartitionBlock& b : blocks_)
    if (!b.iterations.empty()) m = std::min(m, b.iterations.size());
  return m == SIZE_MAX ? 0 : m;
}

PartitionStats compute_partition_stats(const ComputationStructure& q, const Partition& p) {
  PartitionStats stats;
  stats.block_comm = Digraph(p.block_count());
  q.for_each_arc_id([&](std::size_t src, std::size_t dst, std::size_t) {
    ++stats.total_arcs;
    std::size_t bs = p.block_of(src);
    std::size_t bd = p.block_of(dst);
    if (bs == bd) {
      ++stats.intrablock_arcs;
    } else {
      ++stats.interblock_arcs;
      stats.block_comm.add_edge(bs, bd, 1);
    }
  });
  return stats;
}

}  // namespace hypart
