#include "core/plan_view.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/error.hpp"
#include "core/json_writer.hpp"
#include "core/pipeline.hpp"
#include "partition/symbolic.hpp"
#include "perf/table.hpp"

namespace hypart {

namespace {

class GroupingPlan final : public PlanView {
 public:
  /// Exactly one of `q` (dense) and `space` (line-based) is set.
  GroupingPlan(const ComputationStructure* q, const IterSpace* space, const TimeFunction& tf,
               const GroupingOptions& opts)
      : q_(q), space_(space), tf_(tf),
        ps_(q ? std::make_unique<ProjectedStructure>(*q, tf)
              : std::make_unique<ProjectedStructure>(*space, tf)),
        grouping_(Grouping::compute(*ps_, opts)) {
    if (q_) {
      partition_ = Partition::build(*q_, grouping_);
      stats = compute_partition_stats(*q_, partition_);
      for (const PartitionBlock& b : partition_.blocks())
        sizes_.push_back(static_cast<std::int64_t>(b.iterations.size()));
    } else {
      stats = compute_partition_stats(*space_, grouping_);
      sizes_ = symbolic_block_sizes(grouping_);
    }
    line_count = ps_->point_count();
    group_size_r = grouping_.group_size_r();
    beta = grouping_.beta();
    groups_materialized = blocks.group_count = sizes_.size();
    for (std::size_t g = 0; g < sizes_.size(); ++g) {
      blocks.min_block = g == 0 ? sizes_[g] : std::min(blocks.min_block, sizes_[g]);
      blocks.max_block = std::max(blocks.max_block, sizes_[g]);
      blocks.total_iterations += static_cast<std::uint64_t>(sizes_[g]);
    }
  }

  [[nodiscard]] const ProjectedStructure& projected() const { return *ps_; }
  [[nodiscard]] const Grouping& grouping() const { return grouping_; }
  [[nodiscard]] const Mapping& mapping() const { return mapping_.mapping; }
  [[nodiscard]] const std::vector<std::int64_t>& block_sizes() const { return sizes_; }

  void map(unsigned cube_dim, const HypercubeMapOptions& opts) override {
    tig_ = TaskInteractionGraph::from_blocks(sizes_, grouping_, stats.block_comm);
    mapping_ = map_to_hypercube(tig_, cube_dim, opts);
    processors = mapping_.mapping.processor_count;
    method = mapping_.mapping.method;
  }
  [[nodiscard]] std::int64_t population(std::uint64_t group) const override {
    return sizes_[group];
  }
  [[nodiscard]] ProcId owner(std::uint64_t group) const override {
    return mapping_.mapping.block_to_proc[group];
  }
  [[nodiscard]] SimResult simulate(const Topology& topo, const MachineParams& machine,
                                   const SimOptions& opts) override {
    if (q_) return simulate_execution(*q_, tf_, partition_, mapping_.mapping, topo, machine, opts);
    return simulate_execution(*space_, grouping_, mapping_.mapping, topo, machine, opts);
  }
  [[nodiscard]] PlanChecks check() const override {
    return {q_ ? check_exact_cover(*q_, partition_) : check_exact_cover(*space_, grouping_),
            q_ ? check_theorem1(*q_, tf_, partition_) : check_theorem1(*space_, grouping_),
            check_theorem2(grouping_), check_lemmas(grouping_)};
  }

  void write_partition_json(JsonWriter&) const override {}
  void write_mapping_json(JsonWriter& w) const override {
    w.begin_array("block_to_proc");
    for (ProcId p : mapping_.mapping.block_to_proc) w.value(static_cast<std::uint64_t>(p));
    w.end_array();
  }
  [[nodiscard]] std::string partition_table() const override {
    TextTable t({"block", "iterations", "group lattice"});
    for (std::size_t b = 0; b < sizes_.size(); ++b)
      t.row(b, static_cast<std::uint64_t>(sizes_[b]), to_string(grouping_.groups()[b].lattice));
    return t.to_string();
  }
  [[nodiscard]] std::string mapping_report(const Hypercube& cube) const override {
    TextTable t({"block", "processor"});
    for (std::size_t b = 0; b < mapping_.mapping.block_to_proc.size(); ++b)
      t.row(b, static_cast<std::uint64_t>(mapping_.mapping.block_to_proc[b]));
    return ", " + evaluate_mapping(tig_, mapping_.mapping, cube).to_string() + "\n" +
           t.to_string();
  }
  void fill_result(PipelineResult& r) const override {
    r.block_sizes = block_sizes();
    if (q_ == nullptr) return;
    r.partition = partition_;  // shares the block table
    r.mapping = mapping_;
  }

 private:
  const ComputationStructure* q_;
  const IterSpace* space_;
  TimeFunction tf_;
  std::unique_ptr<ProjectedStructure> ps_;
  Grouping grouping_;
  Partition partition_;  ///< dense plans only
  std::vector<std::int64_t> sizes_;  ///< block (= group) sizes, in group order
  TaskInteractionGraph tig_;
  HypercubeMappingResult mapping_;
};

class LatticePlan final : public PlanView {
 public:
  LatticePlan(GroupLattice lattice, bool validate)
      : lattice_(std::move(lattice)), validate_(validate) {
    line_count = lattice_.line_count();
    group_size_r = lattice_.group_size_r();
    beta = lattice_.beta();
    partition_tag = " (lattice)";
  }

  [[nodiscard]] const GroupLattice& lattice() const { return lattice_; }
  /// The sweep: the simulate() walk's, or, asked before any simulate, a
  /// sweep-only walk's (which then also fills `blocks` and `stats`).
  const LatticeSweepResult& sweep() {
    if (!sweep_) settle(lattice_.sweep(validate_));
    return *sweep_;
  }

  void map(unsigned cube_dim, const HypercubeMapOptions& opts) override {
    mapping_ = map_to_hypercube(lattice_, cube_dim, opts);
    processors = mapping_.processor_count;
    method = mapping_.method;
  }
  [[nodiscard]] std::int64_t population(std::uint64_t group) const override {
    return lattice_.group_population(lattice_.group_at_sorted_index(group));
  }
  [[nodiscard]] ProcId owner(std::uint64_t group) const override {
    return mapping_.proc_of_group(lattice_, lattice_.group_at_sorted_index(group));
  }
  [[nodiscard]] SimResult simulate(const Topology& topo, const MachineParams& machine,
                                   const SimOptions& opts) override {
    if (sweep_) return simulate_execution(lattice_, mapping_, topo, machine, opts);
    GroupLattice::Sweep walk(lattice_, validate_);
    SimResult res = simulate_execution(lattice_, mapping_, topo, machine, opts, &walk);
    settle(walk.finish());
    return res;
  }
  [[nodiscard]] PlanChecks check() const override {
    if (!sweep_) throw std::logic_error("LatticePlan::check: the lattice has not been walked");
    return {sweep_->exact_cover, sweep_->theorem1, sweep_->theorem2, sweep_->lemmas};
  }

  void write_partition_json(JsonWriter& w) const override {
    w.field("grouping_backend", "lattice");
    w.field("components", lattice_.component_count());
    w.field("min_block", blocks.min_block);
    w.field("max_block", blocks.max_block);
  }
  void write_mapping_json(JsonWriter& w) const override {
    // The per-block processor array is never materialized: one entry per
    // fragment, a run's groups from a_from on.
    w.begin_array("fragment_runs");
    for_each_fragment([&](const GroupLattice::Run& run, std::int64_t a_from, ProcId proc) {
      w.begin_object();
      w.field("comp", run.comp);
      w.field("b", run.b);
      w.field("a_from", a_from);
      w.field("proc", static_cast<std::uint64_t>(proc));
      w.end_object();
    });
    w.end_array();
  }
  [[nodiscard]] std::string partition_table() const override {
    // No per-block vectors exist: the block-size summary, then the run
    // table, one row per (coset, aux b) slot run and its group range.
    TextTable t({"run", "coset", "aux b", "slots", "groups"});
    const std::vector<GroupLattice::Run>& runs = lattice_.runs();
    auto interval = [](std::int64_t lo, std::int64_t hi) {
      return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    };
    for (std::size_t i = 0; i < runs.size(); ++i)
      t.row(i, runs[i].comp, runs[i].b, interval(runs[i].t_lo, runs[i].t_hi),
            interval(runs[i].a_lo, runs[i].a_hi));
    return "block sizes: min " + std::to_string(blocks.min_block) + ", max " +
           std::to_string(blocks.max_block) + ", total " +
           std::to_string(blocks.total_iterations) + "\n" + t.to_string();
  }
  [[nodiscard]] std::string mapping_report(const Hypercube&) const override {
    TextTable t({"coset", "aux b", "a from", "processor"});
    for_each_fragment([&](const GroupLattice::Run& run, std::int64_t a_from, ProcId proc) {
      t.row(run.comp, run.b, a_from, static_cast<std::uint64_t>(proc));
    });
    return ", method=" + mapping_.method + ", directions=" +
           std::to_string(mapping_.directions_used) + "\n" + t.to_string();
  }
  void fill_result(PipelineResult& r) const override { r.lattice_stats = blocks; }

 private:
  GroupLattice lattice_;
  /// visit(run, a_from, proc) for every fragment of the mapping, in run
  /// order, a ascending.
  template <class Visit>
  void for_each_fragment(Visit&& visit) const {
    for (std::size_t i = 0; i + 1 < mapping_.frag_off.size(); ++i)
      for (std::size_t k = mapping_.frag_off[i]; k < mapping_.frag_off[i + 1]; ++k)
        visit(lattice_.runs()[i], mapping_.frag_runs[k].first, mapping_.frag_runs[k].second);
  }

  void settle(LatticeSweepResult sweep) {
    sweep_ = std::move(sweep);
    blocks = sweep_->stats;
    stats = sweep_->partition;
  }

  bool validate_;
  std::optional<LatticeSweepResult> sweep_;  ///< set by the first walk
  LatticeHypercubeMapping mapping_;
};

}  // namespace

std::unique_ptr<PlanView> make_grouping_plan(const ComputationStructure& q,
                                             const TimeFunction& tf, const GroupingOptions& opts) {
  return std::make_unique<GroupingPlan>(&q, nullptr, tf, opts);
}

std::unique_ptr<PlanView> make_grouping_plan(const IterSpace& space, const TimeFunction& tf,
                                             const GroupingOptions& opts) {
  return std::make_unique<GroupingPlan>(nullptr, &space, tf, opts);
}

std::unique_ptr<PlanView> make_lattice_plan(GroupLattice lattice, bool validate) {
  return std::make_unique<LatticePlan>(std::move(lattice), validate);
}

void verify_against_symbolic(const PipelineResult& r, const PipelineConfig& config,
                             const SimOptions& sim_opts) {
  auto fail = [](const std::string& what) {
    throw Error(ErrorKind::Internal,
                "run_pipeline: space_mode=verify: symbolic/dense disagreement on " + what);
  };
  const Hypercube cube(config.cube_dim);
  // A dense run's plan is always the grouping plan over its structure.
  const auto& dense = static_cast<const GroupingPlan&>(*r.plan);
  const Grouping& grouping = dense.grouping();
  auto same_arcs = [&](const PartitionStats& s) {
    return s.total_arcs == dense.stats.total_arcs &&
           s.interblock_arcs == dense.stats.interblock_arcs &&
           s.intrablock_arcs == dense.stats.intrablock_arcs;
  };

  // The line-based closed forms on the dense grouping: its projected points
  // are the symbolic projection's, checked first.
  ProjectedStructure sym_ps(*r.space, r.time_function);
  if (sym_ps.points() != dense.projected().points()) fail("projected points");
  for (std::size_t id = 0; id < sym_ps.point_count(); ++id) {
    if (sym_ps.line_population(id) != dense.projected().line_population(id))
      fail("line populations");
    if (sym_ps.line_representative(id) != dense.projected().line_representative(id))
      fail("line representatives");
  }
  // The block sizes and the block graph are the TIG's whole input.
  if (symbolic_block_sizes(grouping) != dense.block_sizes()) fail("block sizes");
  PartitionStats sym_stats = compute_partition_stats(*r.space, grouping);
  if (!same_arcs(sym_stats)) fail("partition stats");
  if (!sym_stats.block_comm.same_weights(dense.stats.block_comm))
    fail("block communication graph");
  // The line-based simulator models fault plans with the dense block ids
  // and the same remap/detour machinery, so the cross-check holds under any
  // plan — including the degraded fields.
  if (std::string f = first_difference(
          simulate_execution(*r.space, grouping, dense.mapping(), cube, config.machine, sim_opts),
          r.sim);
      !f.empty())
    fail("simulation results (" + f + ")");
  if (config.validate) {
    if (check_exact_cover(*r.space, grouping) != r.exact_cover) fail("exact-cover check");
    if (check_theorem1(*r.space, grouping) != r.theorem1) fail("Theorem 1 check");
  }

  // Closed-form group-lattice cross-checks: every lattice-derived quantity
  // (grouping, statistics, arc classes, cube assignment, simulation, theorem
  // verdicts) must equal the dense stages exactly.
  std::optional<GroupLattice> gl = GroupLattice::build(*r.space, r.time_function, config.grouping);
  if (!gl) return;
  LatticePlan lattice(std::move(*gl), config.validate);
  const GroupLattice& lat = lattice.lattice();
  // Simulation is skipped under node faults below, so the statistics and
  // verdicts come from a sweep-only walk.
  const LatticeSweepResult& sweep = lattice.sweep();
  if (lattice.line_count != dense.line_count) fail("lattice line count");
  if (lattice.blocks.group_count != dense.blocks.group_count) fail("lattice group count");
  if (lattice.group_size_r != dense.group_size_r) fail("lattice group size r");
  if (lattice.beta != dense.beta) fail("lattice beta");
  // Dense group id -> lattice GroupKey, built from the dense Group's own
  // lattice coordinates and component id (a degenerate group is its own
  // component, numbered in lex order like its slot).
  auto key_of = [&](std::size_t gid) -> GroupLattice::GroupKey {
    const Group& g = grouping.groups()[gid];
    const auto comp = static_cast<std::int64_t>(g.component);
    if (g.lattice.empty()) return {comp, 0, comp};
    return {g.lattice[0], g.lattice.size() > 1 ? g.lattice[1] : 0, comp};
  };
  auto index_of = [&](std::size_t gid) { return lat.sorted_index_of_group(key_of(gid)); };
  for (std::size_t gid = 0; gid < grouping.group_count(); ++gid) {
    if (lat.group_lattice_coord(key_of(gid)) != grouping.groups()[gid].lattice)
      fail("lattice group coordinates");
    if (lattice.population(index_of(gid)) != dense.population(gid))
      fail("lattice group populations");
  }
  if (lattice.blocks.total_iterations != r.space->size() ||
      lattice.blocks.min_block != dense.blocks.min_block ||
      lattice.blocks.max_block != dense.blocks.max_block)
    fail("lattice block statistics");
  if (!same_arcs(lattice.stats)) fail("lattice partition stats");

  // Per-(dependence, group-offset) arc weights: re-aggregate the dense
  // line bundles by lattice offset and compare maps.
  std::map<std::pair<std::size_t, LatticeSweepResult::GroupOffset>, std::int64_t> dense_offsets;
  for_each_line_dep(*r.space, sym_ps, [&](const LineDepArcs& b) {
    GroupLattice::GroupKey ks = key_of(grouping.group_of_point(b.point));
    GroupLattice::GroupKey kt = key_of(grouping.group_of_point(b.target));
    dense_offsets[{b.dep, {kt.a - ks.a, kt.b - ks.b, kt.comp - ks.comp}}] += b.count;
  });
  if (dense_offsets != sweep.offset_weights) fail("lattice offset weights");

  lattice.map(config.cube_dim, config.mapping);
  if (lattice.processors != dense.processors) fail("lattice processor count");
  for (std::size_t gid = 0; gid < grouping.group_count(); ++gid)
    if (lattice.owner(index_of(gid)) != dense.owner(gid)) fail("lattice processor assignment");
  // The lattice simulator indexes blocks in sorted order, the dense one in
  // creation order; node-failure remaps break ties on block id, so the
  // cross-check covers fault sets without node failures (link-only plans
  // never consult block ids).
  const bool node_faults = !config.sim.faults.machine_empty() &&
                           config.sim.faults.resolve(cube).failed_node_count() > 0;
  if (!node_faults) {
    if (std::string f = first_difference(lattice.simulate(cube, config.machine, sim_opts), r.sim);
        !f.empty())
      fail("lattice simulation results (" + f + ")");
  }

  if (config.validate) {
    PlanChecks c = lattice.check();
    if (c.exact_cover != r.exact_cover) fail("lattice exact-cover check");
    if (c.theorem1 != r.theorem1) fail("lattice Theorem 1 check");
    if (c.theorem2 != r.theorem2) fail("lattice Theorem 2 report");
    if (c.lemmas != r.lemmas) fail("lattice lemma report");
  }
}

}  // namespace hypart
