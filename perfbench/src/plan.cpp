// plan-symbolic and plan-dense: one thread, closed loop, run_pipeline over a
// fixed nest set at cube dimension 6.  The traced suite re-drives the same
// stages through their public functions, each call wrapped in an obs::Span.
#include <functional>

#include "common.hpp"
#include "core/error.hpp"
#include "core/json_reader.hpp"
#include "core/json_writer.hpp"
#include "core/pipeline.hpp"
#include "frontend/parser.hpp"
#include "frontend/printer.hpp"
#include "loop/index_set.hpp"
#include "partition/symbolic.hpp"
#include "workloads/workloads.hpp"

namespace perf {

using namespace hypart;

namespace {

constexpr unsigned kCubeDim = 6;

struct NestSpec {
  std::string name;
  std::function<LoopNest()> full;   ///< timed size
  std::function<LoopNest()> small;  ///< Verify-mode oracle size
  CommAccounting accounting = CommAccounting::PaperMaxChannel;
};

/// The symbolic set covers all three feeds (lattice chain, lattice plane,
/// line-based fallback on the strided nest) and all three accountings; the
/// per-step accountings run on the smaller domains.
std::vector<NestSpec> symbolic_set() {
  using workloads::floyd_warshall_band;
  return {
      {"sor2d", [] { return workloads::sor2d(1 << 17, 1 << 17); },
       [] { return workloads::sor2d(24, 24); }, CommAccounting::PaperMaxChannel},
      {"triangular_matvec", [] { return workloads::triangular_matvec(1 << 16); },
       [] { return workloads::triangular_matvec(24); }, CommAccounting::PaperMaxChannel},
      {"lu_decomposition", [] { return workloads::lu_decomposition(384); },
       [] { return workloads::lu_decomposition(8); }, CommAccounting::PaperMaxChannel},
      {"pyramid_stencil", [] { return workloads::pyramid_stencil(1 << 15); },
       [] { return workloads::pyramid_stencil(32); }, CommAccounting::PerStepBarrier},
      {"floyd_warshall_band", [] { return floyd_warshall_band(1 << 14, 64); },
       [] { return floyd_warshall_band(40, 6); }, CommAccounting::LinkContention},
      {"wavefront3d", [] { return workloads::wavefront3d(256); },
       [] { return workloads::wavefront3d(8); }, CommAccounting::PaperMaxChannel},
      {"strided_recurrence3d", [] { return workloads::strided_recurrence3d(64, 2); },
       [] { return workloads::strided_recurrence3d(9, 2); }, CommAccounting::PerStepBarrier},
  };
}

/// Dense set: Table I's matvec at M = 1024 plus four more region-growing
/// shapes; matmul runs under link contention.  An odd number of nests with
/// well-separated costs keeps the median plan latency on one nest.
std::vector<NestSpec> dense_set() {
  return {
      {"matrix_vector", [] { return workloads::matrix_vector(320); },
       [] { return workloads::matrix_vector(16); }, CommAccounting::PaperMaxChannel},
      {"matrix_multiplication", [] { return workloads::matrix_multiplication(31); },
       [] { return workloads::matrix_multiplication(5); }, CommAccounting::LinkContention},
      {"example_l1", [] { return workloads::example_l1(191); },
       [] { return workloads::example_l1(9); }, CommAccounting::PaperMaxChannel},
      {"convolution2d", [] { return workloads::convolution2d(32, 4); },
       [] { return workloads::convolution2d(6, 3); }, CommAccounting::PaperMaxChannel},
      {"wavefront3d", [] { return workloads::wavefront3d(40); },
       [] { return workloads::wavefront3d(6); }, CommAccounting::PaperMaxChannel},
  };
}

PipelineConfig config_for(const NestSpec& spec, SpaceMode mode) {
  PipelineConfig c;
  c.cube_dim = kCubeDim;
  c.space_mode = mode;
  c.sim.accounting = spec.accounting;
  return c;
}

/// The quantities the oracles compare: T_exec, steps, blocks, messages.
struct Outcome {
  std::string t_exec;
  std::int64_t steps = 0;
  std::int64_t blocks = 0;
  std::int64_t messages = 0;
  std::int64_t slabs = 0;

  bool operator==(const Outcome& o) const {
    return t_exec == o.t_exec && steps == o.steps && blocks == o.blocks && messages == o.messages;
  }
  [[nodiscard]] std::string json() const {
    JsonWriter w;
    w.begin_object();
    w.field("t_exec", t_exec);
    w.field("steps", steps);
    w.field("blocks", blocks);
    w.field("messages", messages);
    w.end_object();
    return w.str();
  }
  static Outcome from_json(const JsonValue& v) {
    Outcome o;
    o.t_exec = v.string_or("t_exec", "");
    o.steps = v.int_or("steps", -1);
    o.blocks = v.int_or("blocks", -1);
    o.messages = v.int_or("messages", -1);
    return o;
  }
};

Outcome outcome_of(const PipelineResult& r) {
  Outcome o;
  o.t_exec = r.sim.total.to_string();
  o.steps = r.sim.steps;
  o.messages = r.sim.messages;
  if (r.lattice_stats) o.blocks = static_cast<std::int64_t>(r.lattice_stats->group_count);
  else o.blocks = static_cast<std::int64_t>(r.block_sizes.size());
  if (r.space) o.slabs = static_cast<std::int64_t>(r.space->slab_count());
  return o;
}

/// Reference values recorded by `hypart_perf record` (see README.md).
struct References {
  std::map<std::string, Outcome> verify;  ///< small sizes, SpaceMode::Verify
  std::map<std::string, Outcome> timed;   ///< timed sizes, the workload's mode
};

References load_references(const std::string& path, const std::string& workload) {
  References refs;
  JsonValue doc;
  std::string err;
  if (!parse_json_file(path, doc, err))
    throw Error(ErrorKind::Io, "cannot read reference values: " + err);
  const JsonValue& w = doc.get(workload);
  for (const auto& [name, v] : w.get("verify").as_object()) refs.verify[name] = Outcome::from_json(v);
  for (const auto& [name, v] : w.get("timed").as_object()) refs.timed[name] = Outcome::from_json(v);
  return refs;
}

/// Set-up: build every nest, round-trip it through the .loop frontend (the
/// way a user loads a program) and analyze its dependences.
std::vector<LoopNest> build_nests(const std::vector<NestSpec>& set) {
  std::vector<LoopNest> nests;
  nests.reserve(set.size());
  for (const NestSpec& s : set) {
    LoopNest built = s.full();
    LoopNest parsed = parse_loop_nest(unparse_loop_nest(built));
    (void)analyze_dependences(parsed);
    nests.push_back(std::move(parsed));
  }
  return nests;
}

/// Oracle over the small sizes: Verify mode re-derives every stage
/// symbolically and throws on disagreement; results must match the
/// recorded references.
void verify_oracle(const std::vector<NestSpec>& set, const References& refs, Report& r) {
  for (const NestSpec& s : set) {
    ++r.attempted;
    try {
      Outcome o = outcome_of(run_pipeline(s.small(), config_for(s, SpaceMode::Verify)));
      auto it = refs.verify.find(s.name);
      if (it == refs.verify.end() || !(it->second == o))
        r.fail("verify oracle mismatch on " + s.name + ": " + o.json());
      r.info["verify." + s.name] = o.json();
    } catch (const std::exception& e) {
      r.fail("verify oracle error on " + s.name + ": " + e.what());
    }
  }
}

}  // namespace

void run_plan(const Options& opts, bool symbolic, Report& r) {
  const std::vector<NestSpec> set = symbolic ? symbolic_set() : dense_set();
  const SpaceMode mode = symbolic ? SpaceMode::Symbolic : SpaceMode::Dense;
  const References refs = load_references(opts.refs, opts.workload);

  // Set-up, repeated; the median is reported.  It builds the nests and
  // warms up on the small Verify-mode oracle (checked on the first round).
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setups;
  std::vector<LoopNest> nests;
  for (int k = 0; k < 9; ++k) {
    (void)quietest_cpu(cpus);
    Report scratch;
    const double t0 = now_us();
    nests = build_nests(set);
    verify_oracle(set, refs, k == 0 ? r : scratch);
    setups.push_back((now_us() - t0) / 1e6);
  }

  // Timed passes.  With tracing on, the pipeline's own stage spans feed a
  // recorder (the tracing-overhead comparison).
  Recorder rec;
  std::vector<std::vector<double>> nest_us(set.size());
  std::size_t passes = 0;
  const double deadline = now_us() + opts.seconds * 1e6;
  do {
    for (std::size_t i = 0; i < set.size(); ++i) {
      (void)quietest_cpu(cpus);  // see fastest()
      PipelineConfig c = config_for(set[i], mode);
      if (opts.trace) c.obs.trace = &rec;
      ++r.attempted;
      const double t0 = now_us();
      try {
        PipelineResult res = run_pipeline(nests[i], c);
        nest_us[i].push_back(now_us() - t0);
        Outcome o = outcome_of(res);
        auto it = refs.timed.find(set[i].name);
        if (it == refs.timed.end() || !(it->second == o))
          r.fail("timed result mismatch on " + set[i].name + ": " + o.json());
        r.counters["slabs." + set[i].name] = o.slabs;
        r.counters["messages." + set[i].name] = o.messages;
        r.counters["blocks." + set[i].name] = o.blocks;
      } catch (const std::exception& e) {
        r.fail("plan error on " + set[i].name + ": " + e.what());
      }
    }
    ++passes;
  } while (now_us() < deadline);
  pin_thread(0, cpus);

  // The pass is rebuilt from each nest's fastest plan (see fastest()); its
  // latencies are the per-nest figures, its wall time their sum.
  std::vector<double> best_us;
  JsonWriter per_nest;
  per_nest.begin_object();
  for (std::size_t i = 0; i < set.size(); ++i) {
    best_us.push_back(fastest(nest_us[i]));
    per_nest.key(set[i].name).begin_object();
    per_nest.field("fastest", best_us.back());
    per_nest.field("median", median(nest_us[i]));
    per_nest.end_object();
  }
  per_nest.end_object();
  double pass_us = 0;
  for (double u : best_us) pass_us += u;
  r.metrics["setup_s"] = median(setups);
  r.metrics["wall_s"] = pass_us / 1e6;
  r.metrics["latency_p50_us"] = median(best_us);
  r.metrics["latency_p99_us"] = percentile(best_us, 0.99);
  r.metrics["sustained_rps"] = static_cast<double>(set.size()) / (pass_us / 1e6);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  r.info["nest_us"] = per_nest.str();
  r.info["passes"] = std::to_string(passes);
}

void untimed_plan(const Options& opts, bool symbolic, Report& r) {
  const std::vector<NestSpec> set = symbolic ? symbolic_set() : dense_set();
  const References refs = load_references(opts.refs, opts.workload);
  verify_oracle(set, refs, r);
  for (const NestSpec& s : set) {
    Outcome o = outcome_of(run_pipeline(s.small(), config_for(s, symbolic ? SpaceMode::Symbolic
                                                                           : SpaceMode::Dense)));
    r.counters["small.slabs." + s.name] = o.slabs;
    r.counters["small.messages." + s.name] = o.messages;
    r.counters["small.steps." + s.name] = o.steps;
    r.counters["small.blocks." + s.name] = o.blocks;
  }
}

/// `hypart_perf record`: write the reference values of both plan workloads
/// (timed sizes in their own mode, small sizes under Verify).
std::string record_references() {
  JsonWriter w;
  w.begin_object();
  for (bool symbolic : {false, true}) {
    const std::vector<NestSpec> set = symbolic ? symbolic_set() : dense_set();
    w.key(symbolic ? "plan-symbolic" : "plan-dense").begin_object();
    w.key("timed").begin_object();
    for (const NestSpec& s : set)
      w.key(s.name).raw_value(
          outcome_of(run_pipeline(s.full(), config_for(s, symbolic ? SpaceMode::Symbolic
                                                                    : SpaceMode::Dense)))
              .json());
    w.end_object();
    w.key("verify").begin_object();
    for (const NestSpec& s : set)
      w.key(s.name).raw_value(outcome_of(run_pipeline(s.small(), config_for(s, SpaceMode::Verify)))
                                  .json());
    w.end_object();
    w.end_object();
  }
  w.end_object();
  return w.str();
}

// ---- traced per-layer suite ------------------------------------------------

namespace {

void staged_symbolic(const NestSpec& spec, const LoopNest& nest, Recorder& rec, Report& r) {
  obs::TraceSink* sink = &rec;
  const PipelineConfig c = config_for(spec, SpaceMode::Symbolic);
  DependenceInfo dep = analyze_dependences(nest);
  std::unique_ptr<IterSpace> space;
  {
    obs::Span s(sink, "loop.iter_space");
    space = std::make_unique<IterSpace>(nest, dep.distance_vectors());
  }
  r.metrics["loop.slabs"] += static_cast<double>(space->slab_count());
  std::optional<TimeFunction> tf;
  {
    obs::Span s(sink, "schedule.pi_search");
    tf = search_time_function(*space, c.tf_search);
  }
  Hypercube cube(kCubeDim);
  SimOptions so = c.sim;
  so.flops_per_iteration = nest.body_flops();
  std::string reason;
  std::optional<GroupLattice> lat;
  {
    obs::Span s(sink, "partition.lattice_build");
    lat = GroupLattice::build(*space, *tf, c.grouping, &reason);
  }
  SimResult sim;
  if (lat) {
    LatticeSweepResult sweep;
    {
      obs::Span s(sink, "partition.lattice_sweep");
      sweep = lat->sweep(true);
    }
    r.metrics["partition.groups"] += static_cast<double>(sweep.stats.group_count);
    LatticeHypercubeMapping lmap;
    {
      obs::Span s(sink, "mapping.map");
      lmap = map_to_hypercube(*lat, kCubeDim, c.mapping);
    }
    obs::Span s(sink, "sim.lattice");
    sim = simulate_execution(*lat, lmap, cube, c.machine, so);
  } else {
    r.metrics["partition.lattice_fallbacks"] += 1;
    r.info["lattice_fallback." + spec.name] = "\"" + reason + "\"";
    std::unique_ptr<ProjectedStructure> ps;
    {
      obs::Span s(sink, "partition.project");
      ps = std::make_unique<ProjectedStructure>(*space, *tf);
    }
    Grouping g;
    {
      obs::Span s(sink, "partition.grouping");
      g = Grouping::compute(*ps, c.grouping);
    }
    r.metrics["partition.groups"] += static_cast<double>(g.group_count());
    TaskInteractionGraph tig(0);
    {
      obs::Span s(sink, "mapping.tig");
      tig = TaskInteractionGraph::from_symbolic(*space, g);
    }
    HypercubeMappingResult m;
    {
      obs::Span s(sink, "mapping.map");
      m = map_to_hypercube(tig, kCubeDim, c.mapping);
    }
    {
      obs::Span s(sink, "sim.line");
      sim = simulate_execution(*space, g, m.mapping, cube, c.machine, so);
    }
    obs::Span s(sink, "partition.validate");
    (void)check_exact_cover(*space, g);
    (void)check_theorem1(*space, g);
  }
  r.metrics["sim.messages"] += static_cast<double>(sim.messages);
  r.metrics["sim.steps"] += static_cast<double>(sim.steps);
}

void staged_dense(const NestSpec& spec, const LoopNest& nest, Recorder& rec, Report& r) {
  obs::TraceSink* sink = &rec;
  const PipelineConfig c = config_for(spec, SpaceMode::Dense);
  DependenceInfo dep = analyze_dependences(nest);
  std::unique_ptr<ComputationStructure> q;
  {
    obs::Span s(sink, "loop.index_points");
    IndexSet is(nest);
    q = std::make_unique<ComputationStructure>(is.points(), dep.distance_vectors());
  }
  std::optional<TimeFunction> tf;
  {
    obs::Span s(sink, "schedule.pi_search");
    tf = search_time_function(*q, c.tf_search);
  }
  std::unique_ptr<ProjectedStructure> ps;
  {
    obs::Span s(sink, "partition.project");
    ps = std::make_unique<ProjectedStructure>(*q, *tf);
  }
  Grouping g;
  {
    obs::Span s(sink, "partition.grouping");
    g = Grouping::compute(*ps, c.grouping);
  }
  r.metrics["partition.groups"] += static_cast<double>(g.group_count());
  Partition part;
  {
    obs::Span s(sink, "partition.blocks");
    part = Partition::build(*q, g);
    (void)compute_partition_stats(*q, part);
  }
  TaskInteractionGraph tig(0);
  {
    obs::Span s(sink, "mapping.tig");
    tig = TaskInteractionGraph::from_partition(*q, part, g);
  }
  HypercubeMappingResult m;
  {
    obs::Span s(sink, "mapping.map");
    m = map_to_hypercube(tig, kCubeDim, c.mapping);
  }
  Hypercube cube(kCubeDim);
  SimOptions so = c.sim;
  so.flops_per_iteration = nest.body_flops();
  SimResult sim;
  {
    obs::Span s(sink, "sim.dense");
    sim = simulate_execution(*q, *tf, part, m.mapping, cube, c.machine, so);
  }
  {
    obs::Span s(sink, "partition.validate");
    (void)check_exact_cover(*q, part);
    (void)check_theorem1(*q, *tf, part);
    (void)check_theorem2(g);
    (void)check_lemmas(g);
  }
  r.metrics["sim.messages"] += static_cast<double>(sim.messages);
  r.metrics["sim.steps"] += static_cast<double>(sim.steps);
}

}  // namespace

void plan_layers(const Options& /*opts*/, Report& r) {
  Recorder rec;
  for (const char* k : {"loop.slabs", "partition.groups", "partition.lattice_fallbacks",
                        "sim.messages", "sim.steps"})
    r.metrics[k] = 0;
  // One pass over each home set: symbolic rows on plan-symbolic's nests,
  // dense rows on plan-dense's.
  for (const NestSpec& s : symbolic_set()) staged_symbolic(s, s.full(), rec, r);
  for (const NestSpec& s : dense_set()) staged_dense(s, s.full(), rec, r);

  r.metrics["loop.iter_space_us"] = rec.total_us("loop.iter_space");
  r.metrics["loop.iter_space_allocs"] = static_cast<double>(rec.total_allocs("loop.iter_space"));
  r.metrics["loop.index_points_us"] = rec.total_us("loop.index_points");
  r.metrics["loop.index_points_allocs"] =
      static_cast<double>(rec.total_allocs("loop.index_points"));
  r.metrics["schedule.pi_search_us"] = rec.total_us("schedule.pi_search");
  r.metrics["partition.lattice_build_us"] = rec.total_us("partition.lattice_build");
  r.metrics["partition.lattice_sweep_us"] = rec.total_us("partition.lattice_sweep");
  r.metrics["partition.lattice_allocs"] = static_cast<double>(
      rec.total_allocs("partition.lattice_build") + rec.total_allocs("partition.lattice_sweep"));
  r.metrics["partition.project_us"] = rec.total_us("partition.project");
  r.metrics["partition.grouping_us"] = rec.total_us("partition.grouping");
  r.metrics["partition.blocks_us"] = rec.total_us("partition.blocks");
  r.metrics["partition.validate_us"] = rec.total_us("partition.validate");
  r.metrics["mapping.tig_us"] = rec.total_us("mapping.tig");
  r.metrics["mapping.map_us"] = rec.total_us("mapping.map");
  r.metrics["sim.dense_us"] = rec.total_us("sim.dense");
  r.metrics["sim.dense_allocs"] = static_cast<double>(rec.total_allocs("sim.dense"));
  r.metrics["sim.line_us"] = rec.total_us("sim.line");
  r.metrics["sim.lattice_us"] = rec.total_us("sim.lattice");
  r.metrics["sim.lattice_allocs"] = static_cast<double>(rec.total_allocs("sim.lattice"));
  for (const char* k : {"loop.slabs", "partition.groups", "partition.lattice_fallbacks",
                        "sim.messages", "sim.steps"})
    r.counters[k] = static_cast<std::int64_t>(r.metrics[k]);
}

}  // namespace perf
