#include "core/pipeline.hpp"

#include <sstream>

#include "core/error.hpp"
#include "numeric/rational.hpp"

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

/// The supplied Π, checked against the nest, else the search's best.
TimeFunction choose_time_function(const PipelineConfig& config, std::size_t depth,
                                  const PipelineResult& r) {
  if (config.time_function) {
    if (config.time_function->size() != depth)
      throw Error(ErrorKind::Config, "run_pipeline: supplied time function has " +
                                         std::to_string(config.time_function->size()) +
                                         " coefficients; the nest has depth " +
                                         std::to_string(depth));
    TimeFunction tf{*config.time_function};
    if (!is_valid_time_function(tf, r.structure ? r.structure->dependences()
                                                : r.space->dependences()))
      throw Error(ErrorKind::Config, "run_pipeline: supplied time function is invalid");
    return tf;
  }
  std::optional<TimeFunction> searched = r.structure
                                             ? search_time_function(*r.structure, config.tf_search)
                                             : search_time_function(*r.space, config.tf_search);
  if (!searched)
    throw Error(ErrorKind::Unsatisfiable,
                "run_pipeline: no valid time function found in the search box; widen "
                "tf_search.max_coefficient");
  return *searched;
}

SimOptions sim_options(const LoopNest& nest, const PipelineConfig& config) {
  SimOptions opts = config.sim;
  opts.flops_per_iteration = config.flops_override.value_or(nest.body_flops());
  opts.obs = config.obs;
  return opts;
}

/// Algorithm 1 on the materialized structure (dense) or on the space
/// (symbolic).  The only place that chooses between the lattice and the
/// line-based plan: the lattice runs whenever GroupLattice's gate admits
/// the space.  A lattice plan learns its blocks and arcs in simulate().
std::unique_ptr<PlanView> make_plan(const ComputationStructure* structure, const IterSpace* space,
                                    const TimeFunction& tf, const PipelineConfig& config) {
  obs::TraceSink* sink = config.obs.trace;
  std::optional<GroupLattice> lattice;
  if (structure == nullptr) {
    std::string reason;
    {
      obs::Span span(sink, "lattice_build", "pipeline");
      lattice = GroupLattice::build(*space, tf, config.grouping, &reason);
      span.arg("admitted", static_cast<std::int64_t>(lattice.has_value() ? 1 : 0));
      if (!lattice) span.arg("fallback_reason", reason);
    }
    if (!lattice && config.obs.metrics != nullptr)
      config.obs.metrics->add("pipeline.lattice_fallback." + reason);
  }
  obs::Span span(sink, "partition", "pipeline");
  if (lattice) return make_lattice_plan(std::move(*lattice), config.validate);
  if (structure) return make_grouping_plan(*structure, tf, config.grouping, sink);
  return make_grouping_plan(*space, tf, config.grouping, sink);
}

}  // namespace

PipelineResult run_pipeline(const LoopNest& nest, const PipelineConfig& config) {
  obs::TraceSink* sink = config.obs.trace;
  obs::MetricsRegistry* reg = config.obs.metrics;
  if (reg != nullptr)
    reg->add(std::string("pipeline.space_mode.") + to_string(config.space_mode));

  PipelineResult r;
  r.space_mode = config.space_mode;
  if (sink != nullptr) {
    obs::emit_process_name(sink, obs::kPipelinePid, "hypart pipeline (wall clock)");
    obs::emit_thread_name(sink, obs::kPipelinePid, obs::kPipelineTid, "pipeline stages");
  }
  {
    obs::Span total_span(sink, "run_pipeline", "pipeline", obs::kPipelinePid,
                         obs::kPipelineTid, {{"loop", nest.name()}});
    std::int64_t iterations = 0;
    {
      obs::Span span(sink, "dependence_analysis", "pipeline");
      r.dependence = analyze_dependences(nest, config.dependence);
      span.arg("dependences", static_cast<std::int64_t>(r.dependence.dependences.size()));
    }
    {
      // The iteration space: closed-form slabs, or every index point.
      const bool symbolic = config.space_mode == SpaceMode::Symbolic;
      obs::Span span(sink, symbolic ? "iter_space" : "index_points", "pipeline");
      if (symbolic)
        r.space = std::make_unique<IterSpace>(build_iter_space(nest, r.dependence, config.space_mode));
      else
        r.structure = std::make_unique<ComputationStructure>(IndexSet(nest).points(),
                                                             r.dependence.distance_vectors());
      iterations = detail::checked_cast(r.iteration_count());
      span.arg("iterations", iterations);
    }
    if (reg != nullptr) {
      reg->add("pipeline.iterations", iterations);
      reg->add("pipeline.dependences", static_cast<std::int64_t>(r.dependence.dependences.size()));
      reg->add("pipeline.points_materialized", r.structure ? iterations : 0);
      if (r.space) reg->add("pipeline.slabs", static_cast<std::int64_t>(r.space->slab_count()));
    }

    {
      obs::Span span(sink, "time_function", "pipeline");
      r.time_function = choose_time_function(config, nest.depth(), r);
      span.arg("pi", r.time_function.to_string());
    }

    r.plan = make_plan(r.structure.get(), r.space.get(), r.time_function, config);
    PlanView& plan = *r.plan;

    {
      obs::Span span(sink, "mapping", "pipeline");
      HypercubeMapOptions map_opts = config.mapping;
      map_opts.obs = config.obs;
      plan.map(config.cube_dim, map_opts);
      span.arg("processors", static_cast<std::int64_t>(plan.processors));
    }

    {
      // The plan's blocks and arcs are final only after this walk (a
      // lattice plan counts them in it), so they are read below it.
      obs::Span span(sink, "simulate", "pipeline");
      r.sim = plan.simulate(Hypercube(config.cube_dim), config.machine, sim_options(nest, config));
      span.arg("blocks", static_cast<std::int64_t>(plan.blocks.group_count));
      span.arg("interblock_arcs", static_cast<std::int64_t>(plan.stats.interblock_arcs));
    }
    plan.fill_result(r);
    if (reg != nullptr) {
      reg->add("pipeline.projected_points", static_cast<std::int64_t>(plan.line_count));
      reg->add("pipeline.blocks", static_cast<std::int64_t>(plan.blocks.group_count));
      reg->add("pipeline.groups_materialized", static_cast<std::int64_t>(plan.groups_materialized));
      reg->add("pipeline.interblock_arcs", static_cast<std::int64_t>(plan.stats.interblock_arcs));
      reg->add("pipeline.total_arcs", static_cast<std::int64_t>(plan.stats.total_arcs));
    }

    if (config.validate) {
      obs::Span span(sink, "validate", "pipeline");
      static_cast<PlanChecks&>(r) = plan.check();
    }
  }
  if (config.space_mode == SpaceMode::Verify) {
    obs::Span span(sink, "verify_symbolic", "pipeline");
    r.space = std::make_unique<IterSpace>(build_iter_space(nest, r.dependence, SpaceMode::Verify));
    PipelineConfig quiet = config;
    quiet.obs = {};  // the dense run already recorded this pipeline's telemetry
    verify_against_symbolic(r, quiet, sim_options(nest, quiet));
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
     << " Pi=" << time_function.to_string() << " projected_points=" << plan->line_count
     << " r=" << plan->group_size_r << " groups=" << plan->blocks.group_count
     << " interblock=" << plan->stats.interblock_arcs << "/" << plan->stats.total_arcs
     << " procs=" << plan->processors << " T=" << sim.total.to_string();
  return os.str();
}

}  // namespace hypart
