#include "mapping/tig.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/error.hpp"
#include "partition/symbolic.hpp"

namespace hypart {

TaskInteractionGraph TaskInteractionGraph::from_blocks(const std::vector<std::int64_t>& sizes,
                                                       const Grouping& grouping,
                                                       const Digraph& block_comm) {
  if (sizes.size() != grouping.group_count() || block_comm.vertex_count() != sizes.size())
    throw Error(ErrorKind::Config, "TaskInteractionGraph: " + std::to_string(sizes.size()) +
                                       " blocks but grouping has " +
                                       std::to_string(grouping.group_count()) + " groups");
  TaskInteractionGraph tig(sizes.size());
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    tig.set_compute_weight(b, sizes[b]);
    tig.set_coordinates(b, grouping.groups()[b].lattice);
  }
  // Each directed block pair adds its crossing-arc count to the undirected edge.
  for (std::size_t bs = 0; bs < block_comm.vertex_count(); ++bs)
    for (const Digraph::Edge& e : block_comm.out_edges(bs)) tig.add_comm(bs, e.to, e.weight);
  return tig;
}

TaskInteractionGraph TaskInteractionGraph::from_partition(const ComputationStructure& q,
                                                          const Partition& p,
                                                          const Grouping& grouping) {
  std::vector<std::int64_t> sizes;
  for (const PartitionBlock& b : p.blocks())
    sizes.push_back(static_cast<std::int64_t>(b.iterations.size()));
  return from_blocks(sizes, grouping, compute_partition_stats(q, p).block_comm);
}

TaskInteractionGraph TaskInteractionGraph::from_symbolic(const IterSpace& space,
                                                         const Grouping& grouping) {
  return from_blocks(symbolic_block_sizes(grouping), grouping,
                     compute_partition_stats(space, grouping).block_comm);
}

TaskInteractionGraph TaskInteractionGraph::mesh(std::size_t width, std::size_t height,
                                                std::int64_t edge_weight) {
  TaskInteractionGraph tig(width * height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      std::size_t v = y * width + x;
      tig.set_coordinates(v, {static_cast<std::int64_t>(x), static_cast<std::int64_t>(y)});
      if (x + 1 < width) tig.add_comm(v, v + 1, edge_weight);
      if (y + 1 < height) tig.add_comm(v, v + width, edge_weight);
    }
  }
  return tig;
}

void TaskInteractionGraph::set_compute_weight(std::size_t v, std::int64_t w) {
  compute_.at(v) = w;
}

std::int64_t TaskInteractionGraph::total_compute() const {
  std::int64_t t = 0;
  for (std::int64_t w : compute_) t += w;
  return t;
}

void TaskInteractionGraph::add_comm(std::size_t u, std::size_t v, std::int64_t weight) {
  if (u >= vertex_count() || v >= vertex_count())
    throw std::out_of_range("TaskInteractionGraph::add_comm");
  if (u == v) return;  // self-communication is local
  auto key = std::minmax(u, v);
  edges_[{key.first, key.second}] += weight;
}

std::int64_t TaskInteractionGraph::comm_weight(std::size_t u, std::size_t v) const {
  auto key = std::minmax(u, v);
  auto it = edges_.find({key.first, key.second});
  return it == edges_.end() ? 0 : it->second;
}

std::int64_t TaskInteractionGraph::total_comm() const {
  std::int64_t t = 0;
  for (const auto& [e, w] : edges_) t += w;
  return t;
}

void TaskInteractionGraph::set_coordinates(std::size_t v, IntVec coords) {
  if (coords_.size() < compute_.size()) coords_.resize(compute_.size());
  coords_.at(v) = std::move(coords);
}

const std::optional<IntVec>& TaskInteractionGraph::coordinates(std::size_t v) const {
  static const std::optional<IntVec> kNone;
  if (v >= coords_.size()) return kNone;
  return coords_[v];
}

bool TaskInteractionGraph::has_coordinates() const {
  if (coords_.size() < compute_.size()) return false;
  return std::all_of(coords_.begin(), coords_.end(),
                     [](const std::optional<IntVec>& c) { return c.has_value(); });
}

std::size_t TaskInteractionGraph::coordinate_dimensions() const {
  std::size_t dim = 0;
  for (const std::optional<IntVec>& c : coords_)
    if (c) dim = std::max(dim, c->size());
  return dim;
}

std::vector<std::vector<std::size_t>> Mapping::blocks_per_proc() const {
  std::vector<std::vector<std::size_t>> per(processor_count);
  for (std::size_t b = 0; b < block_to_proc.size(); ++b) per.at(block_to_proc[b]).push_back(b);
  return per;
}

std::string MappingMetrics::to_string() const {
  std::ostringstream os;
  os << "comm_cost=" << total_comm_cost << " cut_volume=" << cut_comm_volume
     << " avg_hops=" << avg_hops_weighted << " max_load=" << max_proc_compute
     << " imbalance=" << compute_imbalance << " procs_used=" << used_processors;
  return os.str();
}

MappingMetrics evaluate_mapping(const TaskInteractionGraph& tig, const Mapping& mapping,
                                const Topology& topo) {
  if (mapping.block_to_proc.size() != tig.vertex_count())
    throw std::invalid_argument("evaluate_mapping: mapping size mismatch");
  if (topo.size() < mapping.processor_count)
    throw std::invalid_argument("evaluate_mapping: topology smaller than mapping");

  MappingMetrics m;
  std::int64_t cut_weight_hops_num = 0;
  std::int64_t cut_weight = 0;
  for (const auto& [edge, w] : tig.edges()) {
    ProcId pu = mapping.block_to_proc[edge.first];
    ProcId pv = mapping.block_to_proc[edge.second];
    unsigned hops = topo.distance(pu, pv);
    m.total_comm_cost += w * static_cast<std::int64_t>(hops);
    if (pu != pv) {
      m.cut_comm_volume += w;
      cut_weight_hops_num += w * static_cast<std::int64_t>(hops);
      cut_weight += w;
    }
  }
  m.avg_hops_weighted =
      cut_weight ? static_cast<double>(cut_weight_hops_num) / static_cast<double>(cut_weight) : 0.0;

  std::vector<std::int64_t> load(mapping.processor_count, 0);
  for (std::size_t b = 0; b < tig.vertex_count(); ++b)
    load.at(mapping.block_to_proc[b]) += tig.compute_weight(b);
  std::int64_t total = 0;
  for (std::int64_t l : load) {
    m.max_proc_compute = std::max(m.max_proc_compute, l);
    total += l;
    if (l > 0) ++m.used_processors;
  }
  double mean = mapping.processor_count
                    ? static_cast<double>(total) / static_cast<double>(mapping.processor_count)
                    : 0.0;
  m.compute_imbalance = mean > 0 ? static_cast<double>(m.max_proc_compute) / mean : 0.0;
  return m;
}

}  // namespace hypart
