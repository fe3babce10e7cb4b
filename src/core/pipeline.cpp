#include "core/pipeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/error.hpp"
#include "partition/symbolic.hpp"

namespace hypart {

const char* to_string(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::Threads: return "threads";
    case ExecBackend::Procs: return "procs";
  }
  return "unknown";
}

namespace {

IterSpace build_iter_space(const LoopNest& nest, const DependenceInfo& dep, SpaceMode mode) {
  // Any affine-bounded nest decomposes into slabs; only a decomposition too
  // large to beat dense enumeration is refused (IterSpace throws
  // std::length_error), which we surface as a config error.
  try {
    return IterSpace(nest, dep.distance_vectors());
  } catch (const std::length_error& e) {
    throw Error(ErrorKind::Config, std::string("run_pipeline: space_mode=") + to_string(mode) +
                                       ": " + e.what() + "; use space_mode=dense");
  }
}

void emit_pipeline_names(obs::TraceSink* sink) {
  if (sink == nullptr) return;
  obs::emit_process_name(sink, obs::kPipelinePid, "hypart pipeline (wall clock)");
  obs::emit_thread_name(sink, obs::kPipelinePid, obs::kPipelineTid, "pipeline stages");
}

TimeFunction choose_time_function(const PipelineConfig& config, std::size_t depth,
                                  const std::vector<IntVec>& dependences,
                                  const std::optional<TimeFunction>& searched) {
  if (config.time_function) {
    if (config.time_function->size() != depth)
      throw Error(ErrorKind::Config, "run_pipeline: supplied time function has " +
                                         std::to_string(config.time_function->size()) +
                                         " coefficients; the nest has depth " +
                                         std::to_string(depth));
    TimeFunction tf{*config.time_function};
    if (!is_valid_time_function(tf, dependences))
      throw Error(ErrorKind::Config, "run_pipeline: supplied time function is invalid");
    return tf;
  }
  if (!searched)
    throw Error(ErrorKind::Unsatisfiable,
                "run_pipeline: no valid time function found in the search box; widen "
                "tf_search.max_coefficient");
  return *searched;
}

PipelineResult run_dense(const LoopNest& nest, const PipelineConfig& config) {
  PipelineResult r;
  r.space_mode = SpaceMode::Dense;
  obs::TraceSink* sink = config.obs.trace;
  obs::MetricsRegistry* reg = config.obs.metrics;
  emit_pipeline_names(sink);
  obs::Span total_span(sink, "run_pipeline", "pipeline", obs::kPipelinePid,
                             obs::kPipelineTid, {{"loop", nest.name()}});

  {
    obs::Span span(sink, "dependence_analysis", "pipeline");
    r.dependence = analyze_dependences(nest, config.dependence);
    IndexSet is(nest);
    r.structure =
        std::make_unique<ComputationStructure>(is.points(), r.dependence.distance_vectors());
    span.arg("iterations", static_cast<std::int64_t>(r.structure->vertices().size()));
    span.arg("dependences", static_cast<std::int64_t>(r.dependence.dependences.size()));
  }
  if (reg != nullptr) {
    reg->add("pipeline.iterations", static_cast<std::int64_t>(r.structure->vertices().size()));
    reg->add("pipeline.dependences", static_cast<std::int64_t>(r.dependence.dependences.size()));
    reg->add("pipeline.points_materialized",
             static_cast<std::int64_t>(r.structure->vertices().size()));
  }

  {
    obs::Span span(sink, "time_function", "pipeline");
    std::optional<TimeFunction> searched;
    if (!config.time_function) searched = search_time_function(*r.structure, config.tf_search);
    r.time_function =
        choose_time_function(config, nest.depth(), r.structure->dependences(), searched);
    span.arg("pi", r.time_function.to_string());
  }

  {
    obs::Span span(sink, "partition", "pipeline");
    r.projected = std::make_unique<ProjectedStructure>(*r.structure, r.time_function);
    r.grouping = Grouping::compute(*r.projected, config.grouping);
    r.partition = Partition::build(*r.structure, r.grouping);
    r.stats = compute_partition_stats(*r.structure, r.partition);
    r.block_sizes.reserve(r.partition.block_count());
    for (const PartitionBlock& b : r.partition.blocks())
      r.block_sizes.push_back(static_cast<std::int64_t>(b.iterations.size()));
    span.arg("blocks", static_cast<std::int64_t>(r.partition.block_count()));
    span.arg("interblock_arcs", static_cast<std::int64_t>(r.stats.interblock_arcs));
  }
  if (reg != nullptr) {
    reg->add("pipeline.projected_points", static_cast<std::int64_t>(r.projected->point_count()));
    reg->add("pipeline.blocks", static_cast<std::int64_t>(r.partition.block_count()));
    reg->add("pipeline.groups_materialized",
             static_cast<std::int64_t>(r.partition.block_count()));
    reg->add("pipeline.interblock_arcs", static_cast<std::int64_t>(r.stats.interblock_arcs));
    reg->add("pipeline.total_arcs", static_cast<std::int64_t>(r.stats.total_arcs));
  }

  {
    obs::Span span(sink, "mapping", "pipeline");
    r.tig = TaskInteractionGraph::from_partition(*r.structure, r.partition, r.grouping);
    HypercubeMapOptions map_opts = config.mapping;
    map_opts.obs = config.obs;
    r.mapping = map_to_hypercube(r.tig, config.cube_dim, map_opts);
    span.arg("processors", static_cast<std::int64_t>(r.mapping.mapping.processor_count));
  }

  Hypercube cube(config.cube_dim);
  SimOptions sim_opts = config.sim;
  sim_opts.flops_per_iteration = config.flops_override.value_or(nest.body_flops());
  sim_opts.obs = config.obs;
  {
    obs::Span span(sink, "simulate", "pipeline");
    r.sim = simulate_execution(*r.structure, r.time_function, r.partition, r.mapping.mapping,
                               cube, config.machine, sim_opts);
  }

  if (config.validate) {
    obs::Span span(sink, "validate", "pipeline");
    r.exact_cover = check_exact_cover(*r.structure, r.partition);
    r.theorem1 = check_theorem1(*r.structure, r.time_function, r.partition);
    r.theorem2 = check_theorem2(r.grouping);
    r.lemmas = check_lemmas(r.grouping);
  }
  return r;
}

PipelineResult run_symbolic(const LoopNest& nest, const PipelineConfig& config) {
  PipelineResult r;
  r.space_mode = SpaceMode::Symbolic;
  obs::TraceSink* sink = config.obs.trace;
  obs::MetricsRegistry* reg = config.obs.metrics;
  emit_pipeline_names(sink);
  obs::Span total_span(sink, "run_pipeline", "pipeline", obs::kPipelinePid,
                             obs::kPipelineTid, {{"loop", nest.name()}});

  {
    obs::Span span(sink, "dependence_analysis", "pipeline");
    r.dependence = analyze_dependences(nest, config.dependence);
    r.space = std::make_unique<IterSpace>(
        build_iter_space(nest, r.dependence, SpaceMode::Symbolic));
    span.arg("iterations", static_cast<std::int64_t>(r.space->size()));
    span.arg("dependences", static_cast<std::int64_t>(r.dependence.dependences.size()));
  }
  if (reg != nullptr) {
    reg->add("pipeline.iterations", static_cast<std::int64_t>(r.space->size()));
    reg->add("pipeline.dependences", static_cast<std::int64_t>(r.dependence.dependences.size()));
    reg->add("pipeline.points_materialized", 0);
    reg->add("pipeline.slabs", static_cast<std::int64_t>(r.space->slab_count()));
  }

  {
    obs::Span span(sink, "time_function", "pipeline");
    std::optional<TimeFunction> searched;
    if (!config.time_function) searched = search_time_function(*r.space, config.tf_search);
    r.time_function =
        choose_time_function(config, nest.depth(), r.space->dependences(), searched);
    span.arg("pi", r.time_function.to_string());
  }

  Hypercube cube(config.cube_dim);
  SimOptions sim_opts = config.sim;
  sim_opts.flops_per_iteration = config.flops_override.value_or(nest.body_flops());
  sim_opts.obs = config.obs;

  // Pure lattice path: when the closed forms apply, grouping, mapping,
  // statistics, simulation, and the theorem checks all run off the
  // GroupLattice — no ProjectedStructure, no Group objects, no per-group
  // vectors (pipeline.groups_materialized = 0).
  std::optional<GroupLattice> built;
  std::string fallback_reason;
  {
    obs::Span span(sink, "lattice_build", "pipeline");
    built = GroupLattice::build(*r.space, r.time_function, config.grouping, &fallback_reason);
    // Weighted plane mapping is not closed-form (hypercube_map.hpp); route
    // the whole run through the line-based fallback rather than mixing
    // lattice grouping with a dense mapper.
    if (built && config.mapping.weighted && built->layout() == LatticeLayout::Plane) {
      built.reset();
      fallback_reason = "weighted-plane-mapping";
    }
    span.arg("admitted", static_cast<std::int64_t>(built.has_value() ? 1 : 0));
    if (!built) span.arg("fallback_reason", fallback_reason);
  }
  if (!built && reg != nullptr)
    reg->add("pipeline.lattice_fallback." + fallback_reason);
  if (built) {
    r.lattice = std::make_unique<GroupLattice>(std::move(*built));
    LatticeSweepResult sweep;
    {
      obs::Span span(sink, "partition", "pipeline");
      sweep = r.lattice->sweep(config.validate);
      r.stats = sweep.partition;
      r.lattice_stats = sweep.stats;
      span.arg("blocks", static_cast<std::int64_t>(sweep.stats.group_count));
      span.arg("interblock_arcs", static_cast<std::int64_t>(r.stats.interblock_arcs));
    }
    if (reg != nullptr) {
      reg->add("pipeline.projected_points", static_cast<std::int64_t>(r.lattice->line_count()));
      reg->add("pipeline.blocks", static_cast<std::int64_t>(sweep.stats.group_count));
      reg->add("pipeline.groups_materialized", 0);
      reg->add("pipeline.interblock_arcs", static_cast<std::int64_t>(r.stats.interblock_arcs));
      reg->add("pipeline.total_arcs", static_cast<std::int64_t>(r.stats.total_arcs));
    }
    {
      obs::Span span(sink, "mapping", "pipeline");
      HypercubeMapOptions map_opts = config.mapping;
      map_opts.obs = config.obs;
      r.lattice_mapping = map_to_hypercube(*r.lattice, config.cube_dim, map_opts);
      span.arg("processors", static_cast<std::int64_t>(r.lattice_mapping->processor_count));
    }
    {
      obs::Span span(sink, "simulate", "pipeline");
      r.sim = simulate_execution(*r.lattice, *r.lattice_mapping, cube, config.machine, sim_opts);
    }
    if (config.validate) {
      r.exact_cover = sweep.exact_cover;
      r.theorem1 = sweep.theorem1;
      r.theorem2 = sweep.theorem2;
      r.lemmas = sweep.lemmas;
    }
    return r;
  }

  // Fallback: the line-based symbolic path (still point-free, but one Group
  // per group is materialized — the metric records how many).
  {
    obs::Span span(sink, "partition", "pipeline");
    r.projected = std::make_unique<ProjectedStructure>(*r.space, r.time_function);
    r.grouping = Grouping::compute(*r.projected, config.grouping);
    r.block_sizes = symbolic_block_sizes(r.grouping);
    r.stats = compute_partition_stats(*r.space, r.grouping);
    span.arg("blocks", static_cast<std::int64_t>(r.block_sizes.size()));
    span.arg("interblock_arcs", static_cast<std::int64_t>(r.stats.interblock_arcs));
  }
  if (reg != nullptr) {
    reg->add("pipeline.projected_points", static_cast<std::int64_t>(r.projected->point_count()));
    reg->add("pipeline.blocks", static_cast<std::int64_t>(r.block_sizes.size()));
    reg->add("pipeline.groups_materialized", static_cast<std::int64_t>(r.grouping.group_count()));
    reg->add("pipeline.interblock_arcs", static_cast<std::int64_t>(r.stats.interblock_arcs));
    reg->add("pipeline.total_arcs", static_cast<std::int64_t>(r.stats.total_arcs));
  }

  {
    obs::Span span(sink, "mapping", "pipeline");
    r.tig = TaskInteractionGraph::from_symbolic(*r.space, r.grouping);
    HypercubeMapOptions map_opts = config.mapping;
    map_opts.obs = config.obs;
    r.mapping = map_to_hypercube(r.tig, config.cube_dim, map_opts);
    span.arg("processors", static_cast<std::int64_t>(r.mapping.mapping.processor_count));
  }

  {
    obs::Span span(sink, "simulate", "pipeline");
    r.sim = simulate_execution(*r.space, r.grouping, r.mapping.mapping, cube, config.machine,
                               sim_opts);
  }

  if (config.validate) {
    obs::Span span(sink, "validate", "pipeline");
    r.exact_cover = check_exact_cover(*r.space, r.grouping);
    r.theorem1 = check_theorem1(*r.space, r.grouping);
    r.theorem2 = check_theorem2(r.grouping);
    r.lemmas = check_lemmas(r.grouping);
  }
  return r;
}

bool digraph_weights_equal(const Digraph& a, const Digraph& b) {
  if (a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count()) return false;
  for (std::size_t u = 0; u < a.vertex_count(); ++u) {
    if (a.out_degree(u) != b.out_degree(u)) return false;
    for (const Digraph::Edge& e : a.out_edges(u))
      if (b.edge_weight(u, e.to) != e.weight) return false;
  }
  return true;
}

/// Re-derive every stage of a dense run symbolically and compare; throws
/// Error(ErrorKind::Internal) naming the first stage that disagrees.
void verify_against_symbolic(const LoopNest& nest, const PipelineConfig& config,
                             PipelineResult& r) {
  obs::Span span(config.obs.trace, "verify_symbolic", "pipeline");
  r.space = std::make_unique<IterSpace>(build_iter_space(nest, r.dependence, SpaceMode::Verify));
  auto fail = [](const std::string& what) {
    throw Error(ErrorKind::Internal,
                "run_pipeline: space_mode=verify: symbolic/dense disagreement on " + what);
  };

  ProjectedStructure sym_ps(*r.space, r.time_function);
  if (sym_ps.points() != r.projected->points()) fail("projected points");
  for (std::size_t id = 0; id < sym_ps.point_count(); ++id) {
    if (sym_ps.line_population(id) != r.projected->line_population(id))
      fail("line populations");
    if (sym_ps.line_representative(id) != r.projected->line_representative(id))
      fail("line representatives");
  }

  if (symbolic_block_sizes(r.grouping) != r.block_sizes) fail("block sizes");

  PartitionStats sym_stats = compute_partition_stats(*r.space, r.grouping);
  if (sym_stats.total_arcs != r.stats.total_arcs ||
      sym_stats.interblock_arcs != r.stats.interblock_arcs ||
      sym_stats.intrablock_arcs != r.stats.intrablock_arcs)
    fail("partition stats");
  if (!digraph_weights_equal(sym_stats.block_comm, r.stats.block_comm))
    fail("block communication graph");

  TaskInteractionGraph sym_tig = TaskInteractionGraph::from_symbolic(*r.space, r.grouping);
  if (sym_tig.vertex_count() != r.tig.vertex_count() || sym_tig.edges() != r.tig.edges())
    fail("task interaction graph");
  for (std::size_t v = 0; v < sym_tig.vertex_count(); ++v) {
    if (sym_tig.compute_weight(v) != r.tig.compute_weight(v)) fail("TIG vertex weights");
    if (sym_tig.coordinates(v) != r.tig.coordinates(v)) fail("TIG coordinates");
  }

  // The line-based symbolic simulator models fault plans with the dense
  // block ids and the same remap/detour machinery, so the cross-check holds
  // under any plan — including the degraded fields.
  {
    Hypercube cube(config.cube_dim);
    SimOptions sim_opts = config.sim;
    sim_opts.flops_per_iteration = config.flops_override.value_or(nest.body_flops());
    sim_opts.obs = {};  // the dense run already recorded this pipeline's telemetry
    SimResult sym = simulate_execution(*r.space, r.grouping, r.mapping.mapping, cube,
                                       config.machine, sim_opts);
    if (!(sym.total == r.sim.total) || sym.steps != r.sim.steps ||
        sym.messages != r.sim.messages || sym.words != r.sim.words ||
        !(sym.compute_bottleneck == r.sim.compute_bottleneck) ||
        !(sym.comm_bottleneck == r.sim.comm_bottleneck) ||
        sym.max_link_words != r.sim.max_link_words ||
        sym.per_proc_iterations != r.sim.per_proc_iterations)
      fail("simulation results");
    if (sym.failed_nodes != r.sim.failed_nodes || sym.failed_links != r.sim.failed_links ||
        sym.rerouted_messages != r.sim.rerouted_messages ||
        sym.migrated_blocks != r.sim.migrated_blocks ||
        !(sym.migration_cost == r.sim.migration_cost))
      fail("degraded simulation results");
  }

  if (config.validate) {
    if (check_exact_cover(*r.space, r.grouping) != r.exact_cover) fail("exact-cover check");
    if (check_theorem1(*r.space, r.grouping) != r.theorem1) fail("Theorem 1 check");
  }

  // Closed-form group-lattice cross-checks: when the lattice gate admits
  // this nest, every lattice-derived quantity (grouping, statistics, TIG
  // arc classes, cube assignment, simulation, theorem verdicts) must match
  // the dense stages exactly.
  if (auto lat = GroupLattice::build(*r.space, r.time_function, config.grouping)) {
    if (lat->line_count() != r.projected->point_count()) fail("lattice line count");
    if (lat->group_count() != r.grouping.group_count()) fail("lattice group count");
    if (lat->group_size_r() != r.grouping.group_size_r()) fail("lattice group size r");
    if (lat->beta() != r.grouping.beta()) fail("lattice beta");
    // Dense group id -> lattice GroupKey, built from the dense Group's own
    // lattice coordinates and component id (sorted order when degenerate —
    // dense creation order is the lex seed order there).
    auto key_of = [&](std::size_t gid) -> GroupLattice::GroupKey {
      if (lat->degenerate()) return lat->group_at_sorted_index(gid);
      const Group& g = r.grouping.groups()[gid];
      if (lat->layout() == LatticeLayout::Plane)
        return {g.lattice.at(0), g.lattice.at(1), 0};
      return {g.lattice.at(0), 0, static_cast<std::int64_t>(g.component)};
    };
    for (std::size_t gid = 0; gid < r.grouping.group_count(); ++gid) {
      GroupLattice::GroupKey key = key_of(gid);
      if (lat->group_lattice_coord(key) != r.grouping.groups()[gid].lattice)
        fail("lattice group coordinates");
      if (lat->group_population(key) != r.block_sizes[gid]) fail("lattice group populations");
    }

    LatticeSweepResult sweep = lat->sweep(config.validate);
    if (sweep.stats.group_count != r.grouping.group_count() ||
        sweep.stats.total_iterations != r.space->size() ||
        sweep.stats.min_block !=
            *std::min_element(r.block_sizes.begin(), r.block_sizes.end()) ||
        sweep.stats.max_block != *std::max_element(r.block_sizes.begin(), r.block_sizes.end()))
      fail("lattice block statistics");
    if (sweep.partition.total_arcs != r.stats.total_arcs ||
        sweep.partition.interblock_arcs != r.stats.interblock_arcs ||
        sweep.partition.intrablock_arcs != r.stats.intrablock_arcs)
      fail("lattice partition stats");

    // Per-(dependence, group-offset) arc weights: re-aggregate the dense
    // line bundles by lattice offset and compare maps.
    std::map<std::pair<std::size_t, LatticeSweepResult::GroupOffset>, std::int64_t>
        dense_offsets;
    for_each_line_dep(*r.space, sym_ps, [&](const LineDepArcs& b) {
      GroupLattice::GroupKey ks = key_of(r.grouping.group_of_point(b.point));
      GroupLattice::GroupKey kt = key_of(r.grouping.group_of_point(b.target));
      LatticeSweepResult::GroupOffset off{kt.a - ks.a, kt.b - ks.b, kt.comp - ks.comp};
      dense_offsets[{b.dep, off}] += b.count;
    });
    if (dense_offsets != sweep.offset_weights) fail("lattice offset weights");

    // Weighted plane mapping has no closed form (run_symbolic falls back to
    // the line path there), so the mapping/simulation cross-checks only run
    // when the lattice mapper applies.
    if (!(config.mapping.weighted && lat->layout() == LatticeLayout::Plane)) {
      HypercubeMapOptions map_opts = config.mapping;
      map_opts.obs = {};
      LatticeHypercubeMapping lmap = map_to_hypercube(*lat, config.cube_dim, map_opts);
      if (lmap.processor_count != r.mapping.mapping.processor_count)
        fail("lattice processor count");
      for (std::size_t gid = 0; gid < r.grouping.group_count(); ++gid)
        if (lmap.proc_of_group(*lat, key_of(gid)) != r.mapping.mapping.block_to_proc[gid])
          fail("lattice processor assignment");

      // The lattice simulator indexes blocks in sorted order, the dense one
      // in creation order; node-failure remaps break ties on block id, so
      // the cross-check covers fault sets without node failures (link-only
      // plans never consult block ids).
      Hypercube cube(config.cube_dim);
      const bool node_faults = !config.sim.faults.machine_empty() &&
                               config.sim.faults.resolve(cube).failed_node_count() > 0;
      if (!node_faults) {
        SimOptions sim_opts = config.sim;
        sim_opts.flops_per_iteration = config.flops_override.value_or(nest.body_flops());
        sim_opts.obs = {};
        SimResult ls = simulate_execution(*lat, lmap, cube, config.machine, sim_opts);
        if (!(ls.total == r.sim.total) || ls.steps != r.sim.steps ||
            ls.messages != r.sim.messages || ls.words != r.sim.words ||
            !(ls.compute_bottleneck == r.sim.compute_bottleneck) ||
            !(ls.comm_bottleneck == r.sim.comm_bottleneck) ||
            ls.max_link_words != r.sim.max_link_words ||
            ls.per_proc_iterations != r.sim.per_proc_iterations ||
            ls.failed_links != r.sim.failed_links ||
            ls.rerouted_messages != r.sim.rerouted_messages)
          fail("lattice simulation results");
      }
    }

    if (config.validate) {
      if (sweep.exact_cover != r.exact_cover) fail("lattice exact-cover check");
      if (sweep.theorem1 != r.theorem1) fail("lattice Theorem 1 check");
      if (sweep.theorem2.m != r.theorem2.m || sweep.theorem2.beta != r.theorem2.beta ||
          sweep.theorem2.bound != r.theorem2.bound ||
          sweep.theorem2.max_out_degree != r.theorem2.max_out_degree ||
          sweep.theorem2.holds != r.theorem2.holds)
        fail("lattice Theorem 2 report");
      if (sweep.lemmas.lemma2_holds != r.lemmas.lemma2_holds ||
          sweep.lemmas.lemma3_holds != r.lemmas.lemma3_holds ||
          sweep.lemmas.worst_lemma2_fanout != r.lemmas.worst_lemma2_fanout ||
          sweep.lemmas.worst_lemma3_fanout != r.lemmas.worst_lemma3_fanout)
        fail("lattice lemma report");
    }
  }
}

}  // namespace

PipelineResult run_pipeline(const LoopNest& nest, const PipelineConfig& config) {
  obs::MetricsRegistry* reg = config.obs.metrics;
  if (reg != nullptr)
    reg->add(std::string("pipeline.space_mode.") + to_string(config.space_mode));

  PipelineResult r;
  switch (config.space_mode) {
    case SpaceMode::Dense:
      r = run_dense(nest, config);
      break;
    case SpaceMode::Symbolic:
      r = run_symbolic(nest, config);
      break;
    case SpaceMode::Verify:
      r = run_dense(nest, config);
      r.space_mode = SpaceMode::Verify;
      verify_against_symbolic(nest, config, r);
      break;
  }

  if (reg != nullptr) r.metrics = reg->snapshot();
  return r;
}

std::uint64_t PipelineResult::iteration_count() const {
  if (structure) return static_cast<std::uint64_t>(structure->vertices().size());
  if (space) return space->size();
  return 0;
}

std::string PipelineResult::summary() const {
  const std::size_t deps = structure ? structure->dependences().size()
                                     : (space ? space->dependences().size() : 0);
  std::ostringstream os;
  os << "iterations=" << iteration_count() << " deps=" << deps
     << " Pi=" << time_function.to_string();
  if (lattice) {
    os << " projected_points=" << lattice->line_count() << " r=" << lattice->group_size_r()
       << " groups=" << lattice->group_count();
  } else {
    os << " projected_points=" << projected->point_count() << " r=" << grouping.group_size_r()
       << " groups=" << grouping.group_count();
  }
  os << " interblock=" << stats.interblock_arcs << "/" << stats.total_arcs
     << " procs="
     << (lattice_mapping ? lattice_mapping->processor_count : mapping.mapping.processor_count)
     << " T=" << sim.total.to_string();
  return os.str();
}

}  // namespace hypart
