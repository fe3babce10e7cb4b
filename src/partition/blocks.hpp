// hypart — partitioned blocks (Def. 6 / Algorithm 1 Step 6).
//
// Block B_i is the union of the projection lines of group G_i:
//   B_i = U_{v in G_i} { j in J^n | j = v + tΠ }.
// The Partition assigns every iteration of the computational structure to
// exactly one block and exposes the communication statistics the paper
// reports (e.g. loop L1: 33 dependence pairs, 12 interblock).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "partition/grouping.hpp"

namespace hypart {

struct PartitionBlock {
  std::size_t group_id = 0;
  std::vector<std::size_t> iterations;  ///< vertex ids of the computational structure
};

/// The partitioning G_Π(Q): blocks in 1:1 correspondence with groups.
/// Immutable once built; copies share one block table (O(1)).
class Partition {
 public:
  /// `grouping` must group the dense projection of q (ProjectedStructure(q,
  /// tf)): its vertex -> point table assigns each vertex without
  /// re-projecting it.
  static Partition build(const ComputationStructure& q, const Grouping& grouping);

  /// Build from an arbitrary block label per vertex (labels need not be
  /// dense; they are renumbered).  Used to wrap baseline partitionings
  /// (e.g. the GCD method's residue classes) for the simulator and mapper.
  static Partition from_labels(const ComputationStructure& q,
                               const std::vector<std::size_t>& labels);

  [[nodiscard]] const std::vector<PartitionBlock>& blocks() const { return table().blocks; }
  [[nodiscard]] std::size_t block_count() const { return table().blocks.size(); }

  /// Block id of a computational-structure vertex id.
  [[nodiscard]] std::size_t block_of(std::size_t vertex_id) const;

  [[nodiscard]] std::size_t max_block_size() const;
  [[nodiscard]] std::size_t min_block_size() const;

 private:
  struct Table {
    std::vector<PartitionBlock> blocks;
    std::vector<std::size_t> vertex_block;
  };
  static inline const Table kEmpty{};
  /// The shared table; an empty one when unset or moved from.
  [[nodiscard]] const Table& table() const { return table_ ? *table_ : kEmpty; }
  std::shared_ptr<const Table> table_;
};

/// Communication statistics of a partition over its structure.
struct PartitionStats {
  std::size_t total_arcs = 0;       ///< all dependence pairs in Q
  std::size_t interblock_arcs = 0;  ///< pairs crossing block boundaries
  std::size_t intrablock_arcs = 0;
  Digraph block_comm;               ///< block-level graph, weights = crossing pairs

  [[nodiscard]] double interblock_fraction() const {
    return total_arcs ? static_cast<double>(interblock_arcs) / static_cast<double>(total_arcs) : 0.0;
  }
};

PartitionStats compute_partition_stats(const ComputationStructure& q, const Partition& p);

}  // namespace hypart
