// hypart — one view of the plan, whichever grouping built it.
//
// The paper produces one plan: Algorithm 1 makes the blocks, Algorithm 2
// assigns each block to a processor.  Two implementations build it — the
// grouping plan (ProjectedStructure + Grouping + TIG + Algorithm 2, over a
// materialized structure or, line-based, over an IterSpace) and the lattice
// plan (GroupLattice + the closed-form mapping + one walk, no per-group
// state) — and readers see only this view.  Its numbers are plain fields
// filled once; only the path-specific parts are virtual.  The lattice plan
// fills `blocks`, `stats` and check() from the walk its first simulate()
// drives, so run_pipeline reads them after simulating.  A plan points at
// the structure or space it was built on (heap objects the PipelineResult
// owns), never into the result itself.
#pragma once

#include <memory>
#include <string>

#include "mapping/hypercube_map.hpp"
#include "partition/blocks.hpp"
#include "partition/group_lattice.hpp"
#include "sim/exec_sim.hpp"

namespace hypart {

class JsonWriter;
struct PipelineConfig;
struct PipelineResult;

/// The theorem/lemma verdicts of a plan.
struct PlanChecks {
  bool exact_cover = false;
  bool theorem1 = false;
  Theorem2Report theorem2;
  LemmaReport lemmas;
};

class PlanView {
 public:
  virtual ~PlanView() = default;

  std::uint64_t line_count = 0;           ///< projection lines (projected points |V^p|)
  std::int64_t group_size_r = 0;          ///< r of Algorithm 1 Step 1
  std::size_t beta = 0;                   ///< rank of the projected dependences
  /// Group (= block) count, iterations, min/max block; on the lattice plan
  /// set by the first simulate().
  LatticeBlockStats blocks;
  /// Arc counts; on the lattice plan set by the first simulate(), with
  /// block_comm empty.
  PartitionStats stats;
  std::uint64_t groups_materialized = 0;  ///< Group objects built (0 on the lattice plan)
  std::string partition_tag;              ///< printed after the block count by `hypart partition`
  std::size_t processors = 0;             ///< set by map()
  std::string method;                     ///< Algorithm 2 method, set by map()

  /// Algorithm 2 onto a 2^cube_dim hypercube.
  virtual void map(unsigned cube_dim, const HypercubeMapOptions& opts) = 0;
  /// Iterations and processor of a group, in the plan's own group order
  /// (creation order on the grouping plan, sorted order on the lattice).
  [[nodiscard]] virtual std::int64_t population(std::uint64_t group) const = 0;
  [[nodiscard]] virtual ProcId owner(std::uint64_t group) const = 0;
  /// The plan's simulator feed.  Not const: the lattice plan's first
  /// simulate() also fills `blocks`, `stats` and check() from its walk.
  [[nodiscard]] virtual SimResult simulate(const Topology& topo, const MachineParams& machine,
                                           const SimOptions& opts) = 0;
  /// The verdicts; on the lattice plan, only after simulate().
  [[nodiscard]] virtual PlanChecks check() const = 0;

  /// The path-specific members of the `partition` and `mapping` objects.
  virtual void write_partition_json(JsonWriter& w) const = 0;
  virtual void write_mapping_json(JsonWriter& w) const = 0;
  /// `hypart partition`'s lines after the verdicts, and `hypart map`'s text
  /// after "blocks: N -> <cube>".
  [[nodiscard]] virtual std::string partition_table() const = 0;
  [[nodiscard]] virtual std::string mapping_report(const Hypercube& cube) const = 0;
  /// Fill the result's path-specific fields: the dense execution fields
  /// (partition, mapping) and perfbench's block_sizes / lattice_stats.
  virtual void fill_result(PipelineResult& r) const = 0;
};

/// The grouping plan over a materialized structure (dense: the blocks are
/// a Partition of it) or over an IterSpace (line-based: closed-form
/// statistics over its lines, no index point).
std::unique_ptr<PlanView> make_grouping_plan(const ComputationStructure& q,
                                             const TimeFunction& tf, const GroupingOptions& opts);
std::unique_ptr<PlanView> make_grouping_plan(const IterSpace& space, const TimeFunction& tf,
                                             const GroupingOptions& opts);
/// The lattice plan.  It does not walk the lattice here: its first
/// simulate() feeds the simulator and the lattice sweep (with the theorem
/// checks when `validate`) from one walk, inside the caller's `simulate`
/// span, and fills `blocks`, `stats` and check() from it.
std::unique_ptr<PlanView> make_lattice_plan(GroupLattice lattice, bool validate);

/// Verify mode: check a dense result `r` stage by stage against the
/// closed forms over `r.space` — the line-based statistics, TIG and
/// simulator feed on its grouping, and, when GroupLattice's gate admits
/// the space, the lattice plan.  Throws Error(Internal) naming the first
/// disagreement.
void verify_against_symbolic(const PipelineResult& r, const PipelineConfig& config,
                             const SimOptions& sim_opts);

}  // namespace hypart
