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
  /// The groups a_from <= a < a_next of run `run`, all on `proc`.  holds()
  /// is O(1), so a walker that keeps the last fragment it looked up
  /// searches again only when a group leaves it.
  struct Fragment {
    std::size_t run = 0;
    std::int64_t b = 0, comp = 0;  ///< the keys' aux coordinate and coset
    std::int64_t a_from = 0, a_next = 0;
    ProcId proc = 0;
    [[nodiscard]] bool holds(const GroupLattice::GroupKey& g) const {
      return g.a >= a_from && g.a < a_next && g.b == b && g.comp == comp;
    }
  };

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

  /// The fragment holding group g; O(log).  A degenerate lattice keys each
  /// group by its own coset, so there the fragment narrows to g alone.  A
  /// group no run holds gets processor 0 and a fragment holding only g.
  [[nodiscard]] Fragment fragment_of(const GroupLattice& lattice,
                                     const GroupLattice::GroupKey& g) const;
  [[nodiscard]] ProcId proc_of_group(const GroupLattice& lattice,
                                     const GroupLattice::GroupKey& g) const {
    return fragment_of(lattice, g).proc;
  }
  /// Every fragment, runs in table order and a ascending, as
  /// visit(run, a_from, a_next, proc); O(fragments).
  template <class Visit>
  void for_each_fragment(const GroupLattice& lattice, Visit&& visit) const {
    for (std::size_t run = 0; run + 1 < frag_off.size(); ++run)
      for (std::size_t f = frag_off[run]; f < frag_off[run + 1]; ++f)
        visit(run, frag_runs[f].first, a_next_of(lattice, run, f), frag_runs[f].second);
  }

 private:
  /// The a just past fragment f of run `run`.
  [[nodiscard]] std::int64_t a_next_of(const GroupLattice& lattice, std::size_t run,
                                       std::size_t f) const {
    return f + 1 < frag_off[run + 1] ? frag_runs[f + 1].first : lattice.runs()[run].a_hi + 1;
  }
};

LatticeHypercubeMapping map_to_hypercube(const GroupLattice& lattice, unsigned cube_dim,
                                         const HypercubeMapOptions& options = {});

}  // namespace hypart
