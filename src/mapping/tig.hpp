// hypart — Task Interaction Graph model (paper Section IV, ref [19]).
//
// Vertices are partitioned blocks; undirected edges carry the communication
// volume between blocks; vertices carry compute weights (iteration counts)
// and, when produced by Algorithm 1, their group-lattice coordinates, which
// Algorithm 2's cluster formation bisects along.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "partition/blocks.hpp"
#include "topology/topology.hpp"

namespace hypart {

class TaskInteractionGraph {
 public:
  TaskInteractionGraph() = default;
  explicit TaskInteractionGraph(std::size_t vertices) : compute_(vertices, 1) {}

  /// Build from Algorithm 1's output: vertex weights are the per-group
  /// block sizes, coordinates the group-lattice coordinates recorded during
  /// region growing, and edge weights the block graph's interblock
  /// dependence-pair counts, symmetrised.  Throws Error(ErrorKind::Config)
  /// unless there is one size and one block-graph vertex per group.
  static TaskInteractionGraph from_blocks(const std::vector<std::int64_t>& sizes,
                                          const Grouping& grouping, const Digraph& block_comm);

  /// from_blocks over a materialized partition and its
  /// compute_partition_stats block graph.
  static TaskInteractionGraph from_partition(const ComputationStructure& q, const Partition& p,
                                             const Grouping& grouping);

  /// from_blocks over a symbolic iteration space (rectangular or
  /// affine/slab-decomposed, docs/affine-spaces.md): summed line
  /// populations and the closed-form block graph (partition/symbolic.hpp)
  /// — no points touched.
  static TaskInteractionGraph from_symbolic(const IterSpace& space, const Grouping& grouping);

  /// A w x h mesh-like TIG with unit edge weights (the paper's Fig. 8(a));
  /// vertex (x, y) has coordinates {x, y}.
  static TaskInteractionGraph mesh(std::size_t width, std::size_t height,
                                   std::int64_t edge_weight = 1);

  [[nodiscard]] std::size_t vertex_count() const { return compute_.size(); }

  void set_compute_weight(std::size_t v, std::int64_t w);
  [[nodiscard]] std::int64_t compute_weight(std::size_t v) const { return compute_.at(v); }
  [[nodiscard]] std::int64_t total_compute() const;

  /// Add (accumulate) undirected communication weight between u and v.
  void add_comm(std::size_t u, std::size_t v, std::int64_t weight);
  [[nodiscard]] std::int64_t comm_weight(std::size_t u, std::size_t v) const;
  [[nodiscard]] const std::map<std::pair<std::size_t, std::size_t>, std::int64_t>& edges() const {
    return edges_;
  }
  [[nodiscard]] std::int64_t total_comm() const;

  void set_coordinates(std::size_t v, IntVec coords);
  [[nodiscard]] const std::optional<IntVec>& coordinates(std::size_t v) const;
  [[nodiscard]] bool has_coordinates() const;
  [[nodiscard]] std::size_t coordinate_dimensions() const;

 private:
  std::vector<std::int64_t> compute_;
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> edges_;  // key: (min,max)
  std::vector<std::optional<IntVec>> coords_;
};

/// An assignment of TIG vertices to processors.
struct Mapping {
  std::vector<ProcId> block_to_proc;
  std::size_t processor_count = 0;
  std::string method;

  [[nodiscard]] std::vector<std::vector<std::size_t>> blocks_per_proc() const;
};

/// Quality metrics of a mapping on a topology.
struct MappingMetrics {
  std::int64_t total_comm_cost = 0;    ///< sum over edges: weight * hops
  std::int64_t cut_comm_volume = 0;    ///< sum over edges crossing processors
  double avg_hops_weighted = 0.0;      ///< comm-weighted mean hop distance
  std::int64_t max_proc_compute = 0;   ///< bottleneck compute load
  double compute_imbalance = 0.0;      ///< max/mean processor load
  std::size_t used_processors = 0;

  [[nodiscard]] std::string to_string() const;
};

MappingMetrics evaluate_mapping(const TaskInteractionGraph& tig, const Mapping& mapping,
                                const Topology& topo);

}  // namespace hypart
