#include "partition/blocks.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace hypart {

Partition Partition::build(const ComputationStructure& q, const Grouping& grouping) {
  const std::vector<std::uint32_t>& vertex_point = grouping.projected().vertex_points();
  if (vertex_point.size() != q.vertices().size())
    throw std::invalid_argument("Partition::build: grouping was not projected from this structure");
  auto t = std::make_shared<Table>();
  t->blocks.resize(grouping.group_count());
  for (std::size_t b = 0; b < t->blocks.size(); ++b) t->blocks[b].group_id = b;
  t->vertex_block.assign(q.vertices().size(), SIZE_MAX);

  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid)
    t->vertex_block[vid] = grouping.group_of_point(vertex_point[vid]);
  std::vector<std::size_t> sizes(t->blocks.size(), 0);
  for (std::size_t gid : t->vertex_block) ++sizes[gid];
  for (std::size_t b = 0; b < t->blocks.size(); ++b) t->blocks[b].iterations.reserve(sizes[b]);
  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid)
    t->blocks[t->vertex_block[vid]].iterations.push_back(vid);
  Partition part;
  part.table_ = std::move(t);
  return part;
}

Partition Partition::from_labels(const ComputationStructure& q,
                                 const std::vector<std::size_t>& labels) {
  if (labels.size() != q.vertices().size())
    throw std::invalid_argument("Partition::from_labels: label count mismatch");
  auto t = std::make_shared<Table>();
  t->vertex_block.assign(labels.size(), SIZE_MAX);
  std::unordered_map<std::size_t, std::size_t> renumber;
  for (std::size_t vid = 0; vid < labels.size(); ++vid) {
    auto [it, inserted] = renumber.try_emplace(labels[vid], renumber.size());
    std::size_t b = it->second;
    if (b == t->blocks.size()) t->blocks.push_back({b, {}});
    t->vertex_block[vid] = b;
    t->blocks[b].iterations.push_back(vid);
  }
  Partition part;
  part.table_ = std::move(t);
  return part;
}

std::size_t Partition::block_of(std::size_t vertex_id) const {
  const std::vector<std::size_t>& vb = table().vertex_block;
  if (vertex_id >= vb.size() || vb[vertex_id] == SIZE_MAX)
    throw std::out_of_range("Partition::block_of: unknown vertex id");
  return vb[vertex_id];
}

std::size_t Partition::max_block_size() const {
  std::size_t m = 0;
  for (const PartitionBlock& b : blocks()) m = std::max(m, b.iterations.size());
  return m;
}

std::size_t Partition::min_block_size() const {
  if (blocks().empty()) return 0;
  std::size_t m = SIZE_MAX;
  for (const PartitionBlock& b : blocks())
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
