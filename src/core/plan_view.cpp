#include "core/plan_view.hpp"

#include <algorithm>
#include <map>

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
    if (q_) partition_ = Partition::build(*q_, grouping_);
    stats = q_ ? compute_partition_stats(*q_, partition_)
               : compute_partition_stats(*space_, grouping_);
    line_count = ps_->point_count();
    group_size_r = grouping_.group_size_r();
    beta = grouping_.beta();
    groups_materialized = blocks.group_count = grouping_.group_count();
    for (std::uint64_t g = 0; g < blocks.group_count; ++g) {
      const std::int64_t n = population(g);
      blocks.min_block = g == 0 ? n : std::min(blocks.min_block, n);
      blocks.max_block = std::max(blocks.max_block, n);
      blocks.total_iterations += static_cast<std::uint64_t>(n);
    }
  }

  [[nodiscard]] const ProjectedStructure& projected() const { return *ps_; }
  [[nodiscard]] const Grouping& grouping() const { return grouping_; }
  [[nodiscard]] const TaskInteractionGraph& tig() const { return tig_; }
  [[nodiscard]] const Mapping& mapping() const { return mapping_.mapping; }
  [[nodiscard]] std::vector<std::int64_t> block_sizes() const {
    std::vector<std::int64_t> sizes(grouping_.group_count());
    for (std::size_t g = 0; g < sizes.size(); ++g) sizes[g] = population(g);
    return sizes;
  }

  void map(unsigned cube_dim, const HypercubeMapOptions& opts) override {
    tig_ = q_ ? TaskInteractionGraph::from_partition(*q_, partition_, grouping_)
              : TaskInteractionGraph::from_symbolic(*space_, grouping_);
    mapping_ = map_to_hypercube(tig_, cube_dim, opts);
    processors = mapping_.mapping.processor_count;
    method = mapping_.mapping.method;
  }
  [[nodiscard]] std::int64_t population(std::uint64_t group) const override {
    if (q_) return static_cast<std::int64_t>(partition_.blocks()[group].iterations.size());
    std::int64_t n = 0;
    for (std::size_t p : grouping_.groups()[group].members())
      n += static_cast<std::int64_t>(ps_->line_population(p));
    return n;
  }
  [[nodiscard]] ProcId owner(std::uint64_t group) const override {
    return mapping_.mapping.block_to_proc[group];
  }
  [[nodiscard]] SimResult simulate(const Topology& topo, const MachineParams& machine,
                                   const SimOptions& opts) const override {
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
    std::vector<std::int64_t> sizes = block_sizes();
    for (std::size_t b = 0; b < sizes.size(); ++b)
      t.row(b, static_cast<std::uint64_t>(sizes[b]), to_string(grouping_.groups()[b].lattice));
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
  TaskInteractionGraph tig_;
  HypercubeMappingResult mapping_;
};

class LatticePlan final : public PlanView {
 public:
  LatticePlan(GroupLattice lattice, bool validate)
      : lattice_(std::move(lattice)), sweep_(lattice_.sweep(validate)) {
    line_count = lattice_.line_count();
    group_size_r = lattice_.group_size_r();
    beta = lattice_.beta();
    blocks = sweep_.stats;
    stats = sweep_.partition;
    partition_tag = " (lattice)";
  }

  [[nodiscard]] const GroupLattice& lattice() const { return lattice_; }
  [[nodiscard]] const LatticeSweepResult& sweep() const { return sweep_; }

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
                                   const SimOptions& opts) const override {
    return simulate_execution(lattice_, mapping_, topo, machine, opts);
  }
  [[nodiscard]] PlanChecks check() const override {
    return {sweep_.exact_cover, sweep_.theorem1, sweep_.theorem2, sweep_.lemmas};
  }

  void write_partition_json(JsonWriter& w) const override {
    w.field("grouping_backend", "lattice");
    w.field("layout", lattice_.layout() == LatticeLayout::Plane ? "plane" : "chain");
    w.field("components", lattice_.component_count());
    w.field("min_block", blocks.min_block);
    w.field("max_block", blocks.max_block);
  }
  void write_mapping_json(JsonWriter& w) const override {
    // The per-block processor array is never materialized: chains emit the
    // sorted-index cluster boundaries, planes the per-aux-chain fragment runs.
    if (mapping_.frag_b.empty()) {
      w.begin_array("cluster_boundaries");
      for (std::uint64_t b : mapping_.boundaries) w.value(b);
      w.end_array();
      return;
    }
    w.begin_array("fragment_runs");
    for (std::size_t i = 0; i < mapping_.frag_b.size(); ++i)
      for (std::size_t k = mapping_.frag_off[i]; k < mapping_.frag_off[i + 1]; ++k) {
        w.begin_object();
        w.field("b", mapping_.frag_b[i]);
        w.field("a_from", mapping_.frag_runs[k].first);
        w.field("proc", static_cast<std::uint64_t>(mapping_.frag_runs[k].second));
        w.end_object();
      }
    w.end_array();
  }
  [[nodiscard]] std::string partition_table() const override {
    // No per-block vectors exist: the block-size summary, then one box per
    // slab (chain: group range and line interval) or per aux chain (plane:
    // group range along a at fixed b).
    const bool plane = lattice_.layout() == LatticeLayout::Plane;
    TextTable t({"box", "groups", plane ? "aux chain b" : "lines"});
    std::vector<GroupLattice::GroupBox> boxes = lattice_.enumerate_boxes();
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      const GroupLattice::GroupBox& b = boxes[i];
      std::string lines = plane ? std::to_string(b.c_lo)
                                : "[" + std::to_string(b.c_lo) + ", " + std::to_string(b.c_hi) + "]";
      t.row(i, "[" + std::to_string(b.a_lo) + ", " + std::to_string(b.a_hi) + "]", lines);
    }
    return "block sizes: min " + std::to_string(blocks.min_block) + ", max " +
           std::to_string(blocks.max_block) + ", total " +
           std::to_string(blocks.total_iterations) + "\n" + t.to_string();
  }
  [[nodiscard]] std::string mapping_report(const Hypercube&) const override {
    std::string head = ", method=" + mapping_.method +
                       ", directions=" + std::to_string(mapping_.directions_used) + "\n";
    if (!mapping_.frag_b.empty()) {
      // Plane layout: clusters are unions of per-aux-chain (a-run, proc)
      // fragments, one row per fragment.
      TextTable t({"aux chain b", "a from", "processor"});
      for (std::size_t i = 0; i < mapping_.frag_b.size(); ++i)
        for (std::size_t k = mapping_.frag_off[i]; k < mapping_.frag_off[i + 1]; ++k)
          t.row(mapping_.frag_b[i], mapping_.frag_runs[k].first,
                static_cast<std::uint64_t>(mapping_.frag_runs[k].second));
      return head + t.to_string();
    }
    // Chain layout: contiguous sorted-index intervals per processor.
    TextTable t({"cluster", "processor", "sorted groups"});
    for (std::uint64_t rank = 0; rank < mapping_.cluster_processor.size(); ++rank) {
      auto [first, last] = mapping_.cluster_range(rank);
      std::string range = first == last ? std::string("(empty)")
                                        : "[" + std::to_string(first) + ", " +
                                              std::to_string(last - 1) + "]";
      t.row(rank, static_cast<std::uint64_t>(mapping_.cluster_processor[rank]), range);
    }
    return head + t.to_string();
  }
  void fill_result(PipelineResult& r) const override { r.lattice_stats = blocks; }

 private:
  GroupLattice lattice_;
  LatticeSweepResult sweep_;
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
  if (symbolic_block_sizes(grouping) != dense.block_sizes()) fail("block sizes");
  PartitionStats sym_stats = compute_partition_stats(*r.space, grouping);
  if (!same_arcs(sym_stats)) fail("partition stats");
  if (!sym_stats.block_comm.same_weights(dense.stats.block_comm))
    fail("block communication graph");
  TaskInteractionGraph tig = TaskInteractionGraph::from_symbolic(*r.space, grouping);
  if (tig.vertex_count() != dense.tig().vertex_count() || tig.edges() != dense.tig().edges())
    fail("task interaction graph");
  for (std::size_t v = 0; v < tig.vertex_count(); ++v) {
    if (tig.compute_weight(v) != dense.tig().compute_weight(v)) fail("TIG vertex weights");
    if (tig.coordinates(v) != dense.tig().coordinates(v)) fail("TIG coordinates");
  }
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
  // verdicts) must match the dense stages exactly.  Where Algorithm 2 has
  // no closed form (symbolic mode maps those runs on the line-based plan)
  // the lattice is checked up to its mapping.
  std::optional<GroupLattice> gl = GroupLattice::build(*r.space, r.time_function, config.grouping);
  if (!gl) return;
  const bool mapped = closed_form_mapping(*gl, config.mapping);
  LatticePlan lattice(std::move(*gl), config.validate);
  const GroupLattice& lat = lattice.lattice();
  if (lattice.line_count != dense.line_count) fail("lattice line count");
  if (lattice.blocks.group_count != dense.blocks.group_count) fail("lattice group count");
  if (lattice.group_size_r != dense.group_size_r) fail("lattice group size r");
  if (lattice.beta != dense.beta) fail("lattice beta");
  // Dense group id -> lattice GroupKey, built from the dense Group's own
  // lattice coordinates and component id (sorted order when degenerate —
  // dense creation order is the lex seed order there).
  auto key_of = [&](std::size_t gid) -> GroupLattice::GroupKey {
    if (lat.degenerate()) return lat.group_at_sorted_index(gid);
    const Group& g = grouping.groups()[gid];
    if (lat.layout() == LatticeLayout::Plane) return {g.lattice.at(0), g.lattice.at(1), 0};
    return {g.lattice.at(0), 0, static_cast<std::int64_t>(g.component)};
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
  if (dense_offsets != lattice.sweep().offset_weights) fail("lattice offset weights");

  if (mapped) {
    lattice.map(config.cube_dim, config.mapping);
    if (lattice.processors != dense.processors) fail("lattice processor count");
    for (std::size_t gid = 0; gid < grouping.group_count(); ++gid)
      if (lattice.owner(index_of(gid)) != dense.owner(gid)) fail("lattice processor assignment");
    // The lattice simulator indexes blocks in sorted order, the dense one
    // in creation order; node-failure remaps break ties on block id, so
    // the cross-check covers fault sets without node failures (link-only
    // plans never consult block ids).
    const bool node_faults = !config.sim.faults.machine_empty() &&
                             config.sim.faults.resolve(cube).failed_node_count() > 0;
    if (!node_faults) {
      if (std::string f = first_difference(lattice.simulate(cube, config.machine, sim_opts), r.sim);
          !f.empty())
        fail("lattice simulation results (" + f + ")");
    }
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
