// hypart — Algorithm 2: mapping partitioned blocks onto hypercubes.
//
// Phase I (cluster formation): recursively bisect the TIG n times, cycling
// through the grouping/auxiliary lattice directions, so neighboring blocks
// stay together.  Phase II (cluster allocation): number clusters with
// per-direction Gray codes and place each cluster on the processor with the
// same binary number — clusters adjacent along a direction land on
// hypercube neighbors.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mapping/tig.hpp"
#include "obs/obs.hpp"
#include "partition/group_lattice.hpp"
#include "topology/topology.hpp"

namespace hypart {

struct Cluster {
  std::vector<std::size_t> vertices;    ///< TIG vertex (block) ids
  std::vector<std::uint64_t> ranks;     ///< interval rank along each direction
  ProcId processor = 0;                 ///< assigned hypercube node
};

struct HypercubeMappingResult {
  Mapping mapping;                      ///< block -> processor
  std::vector<Cluster> clusters;        ///< one per processor (2^n of them)
  std::vector<unsigned> bits_per_direction;  ///< the paper's p_i, sum = n
  std::size_t directions_used = 0;      ///< the paper's m
};

struct HypercubeMapOptions {
  /// Split clusters at the *compute-weighted* median instead of the count
  /// median (the paper's Phase I divides into "two equal size" halves by
  /// block count; blocks carry unequal iteration counts — e.g. matvec's
  /// diagonal block — so weighted splitting trades count balance for load
  /// balance).  Extension beyond the paper; defaults off to reproduce it.
  bool weighted = false;
  /// Optional tracing/metrics hooks: per-bisection-level spans on the wall
  /// clock (pid kPipelinePid, tid kMappingTid) and cluster/direction counters.
  obs::ObsContext obs{};
};

/// Run Algorithm 2 for an n-dimensional hypercube.  The TIG's vertex
/// coordinates define the bisection directions Ω (for partitions produced
/// by Algorithm 1 these are the group-lattice coordinates along the
/// grouping and auxiliary vectors); a TIG without coordinates is bisected
/// along vertex order.
HypercubeMappingResult map_to_hypercube(const TaskInteractionGraph& tig, unsigned cube_dim,
                                        const HypercubeMapOptions& options = {});

/// Closed-form Algorithm 2 on a GroupLattice.
///
/// Chain layouts: the lattice's groups are already in the dense mapper's
/// deterministic sort order (ascending (a, component); lexicographic point
/// order when degenerate — the single bisection direction makes the dense
/// per-level sort a static total order), so Phase I's recursive ceil-halving
/// reduces to 2^cube_dim interval boundaries over the sorted index space and
/// Phase II to one Gray encode per cluster.  O(2^cube_dim) time and memory
/// (O(groups) extra in `weighted` mode, which needs population prefix sums).
///
/// Plane layouts (β = 2): the dense mapper alternates bisection directions
/// (a at even levels, b at odd), so clusters are not sorted-index intervals;
/// they are unions of per-aux-chain a-intervals ("fragments", at most one
/// per b per cluster — both split kinds preserve this).  Phase I bisects the
/// fragment lists directly and the result is a CSR fragment index mapping
/// (a, b) -> processor in O(log) — `frag_*` below, empty for chains.
/// `weighted` plane mapping is not closed-form (the dense order re-sorts per
/// level); the builder throws std::invalid_argument, callers fall back.
struct LatticeHypercubeMapping {
  /// Chain layouts: 2^cube_dim + 1 ascending cuts — cluster of rank q holds
  /// the sorted group indices [boundaries[q], boundaries[q+1]); empty
  /// clusters persist, as in the dense mapper.  Empty for plane layouts.
  std::vector<std::uint64_t> boundaries;
  std::vector<ProcId> cluster_processor;  ///< rank -> Gray-coded hypercube node
  unsigned cube_dim = 0;
  std::size_t processor_count = 0;
  std::size_t directions_used = 0;  ///< the paper's m
  std::vector<unsigned> bits_per_direction;  ///< the paper's p_i, sum = cube_dim
  std::string method = "gray-bisection";

  /// Plane layouts: per-aux-chain (a_lo, processor) runs in CSR form.  Chain
  /// b = frag_b[i] owns runs [frag_off[i], frag_off[i+1]); a group (a, b)
  /// belongs to the last run of its chain with a_lo <= a.
  std::vector<std::int64_t> frag_b;                        ///< ascending, unique
  std::vector<std::size_t> frag_off;                       ///< size frag_b.size() + 1
  std::vector<std::pair<std::int64_t, ProcId>> frag_runs;  ///< ascending a_lo per chain

  /// Processor of the group at sorted index k (chain layouts only);
  /// O(log processor_count).
  [[nodiscard]] ProcId proc_of_sorted_index(std::uint64_t k) const;
  /// Processor of a group in either layout; O(log) — the simulator's and
  /// remapper's per-line query.
  [[nodiscard]] ProcId proc_of_group(const GroupLattice& lattice,
                                     const GroupLattice::GroupKey& g) const;
  /// Sorted-index interval [first, last) of cluster `rank` (chain layouts).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> cluster_range(std::uint64_t rank) const {
    return {boundaries[rank], boundaries[rank + 1]};
  }
};

/// Whether Algorithm 2 has a closed form on `lattice`: every layout except
/// a plane under weighted splitting.
[[nodiscard]] bool closed_form_mapping(const GroupLattice& lattice,
                                       const HypercubeMapOptions& options);

LatticeHypercubeMapping map_to_hypercube(const GroupLattice& lattice, unsigned cube_dim,
                                         const HypercubeMapOptions& options = {});

}  // namespace hypart
