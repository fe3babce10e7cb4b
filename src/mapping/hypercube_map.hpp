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

/// Closed-form Algorithm 2 on a GroupLattice.  The dense mapper sorts each
/// cluster along the level's direction, ties broken by the full coordinate
/// vector and then creation order: (a, b, comp) at a-levels, (b, a, comp)
/// at b-levels (the aux direction, n = 3 only).  In either order a cluster
/// stays a union of per-run a-intervals ("fragments", at most one per run),
/// so Phase I bisects fragment lists: the low half is the shortest prefix
/// in that order reaching half the groups (or, `weighted`, half the
/// population, from per-run population prefix sums).  Phase II Gray-codes
/// each cluster.  The result maps (run, a) -> processor in O(log);
/// O(runs + 2^cube_dim) memory, plus O(groups) for `weighted`.
struct LatticeHypercubeMapping {
  unsigned cube_dim = 0;
  std::size_t processor_count = 0;
  std::size_t directions_used = 0;  ///< the paper's m
  std::vector<unsigned> bits_per_direction;  ///< the paper's p_i, sum = cube_dim
  std::string method = "gray-bisection";

  /// Per-run (a_from, processor) fragments in CSR form: run i of the
  /// lattice's run table owns frag_runs[frag_off[i] .. frag_off[i+1]),
  /// ascending a_from; a group belongs to the last one with a_from <= a.
  std::vector<std::size_t> frag_off;
  std::vector<std::pair<std::int64_t, ProcId>> frag_runs;

  /// Processor of a group; O(log) — the simulator's and remapper's
  /// per-line query.
  [[nodiscard]] ProcId proc_of_group(const GroupLattice& lattice,
                                     const GroupLattice::GroupKey& g) const;
};

LatticeHypercubeMapping map_to_hypercube(const GroupLattice& lattice, unsigned cube_dim,
                                         const HypercubeMapOptions& options = {});

}  // namespace hypart
