// exec: real execution of dense plans at cube dimension 2 (four workers).
// Each timed pass runs run_parallel and run_procs on every nest of the set
// plus one seeded proc:kill run under run_procs; every run is checked bit
// for bit against run_sequential.
#include <memory>

#include "common.hpp"
#include "core/json_writer.hpp"
#include "core/pipeline.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec/proc_runtime.hpp"
#include "workloads/workloads.hpp"

namespace perf {

using namespace hypart;

namespace {

constexpr unsigned kCubeDim = 2;

struct ExecPlan {
  std::string name;
  LoopNest nest;
  PipelineResult plan;
  ArrayStore reference;
};

std::vector<std::pair<std::string, LoopNest>> exec_nests() {
  return {
      {"sor2d", workloads::sor2d(160, 160)},
      {"matrix_vector", workloads::matrix_vector(160)},
      {"example_l1", workloads::example_l1(85)},
      {"convolution1d", workloads::convolution1d(512, 32)},
  };
}

/// Set-up: dense planning plus the run_sequential reference of each nest.
std::vector<std::unique_ptr<ExecPlan>> build_plans(Recorder* rec) {
  std::vector<std::unique_ptr<ExecPlan>> plans;
  for (auto& [name, nest] : exec_nests()) {
    auto p = std::make_unique<ExecPlan>(ExecPlan{name, nest, {}, {}});
    PipelineConfig c;
    c.cube_dim = kCubeDim;
    c.space_mode = SpaceMode::Dense;
    p->plan = run_pipeline(p->nest, c);
    obs::Span s(rec, "exec.sequential");
    p->reference = run_sequential(p->nest);
    plans.push_back(std::move(p));
  }
  return plans;
}

/// The seeded fault: a worker drawn from the workload seed is killed at the
/// step of one of its own iterations (drawn likewise), so it always fires.
fault::ProcFault seeded_kill(std::uint64_t seed, const ExecPlan& p) {
  std::mt19937_64 rng(seed ^ 0x6b696c6cULL);
  const PipelineResult& pl = p.plan;
  std::vector<std::vector<std::size_t>> owned(pl.mapping.mapping.processor_count);
  for (std::size_t b = 0; b < pl.partition.block_count(); ++b)
    for (std::size_t v : pl.partition.blocks()[b].iterations)
      owned[pl.mapping.mapping.block_to_proc[b]].push_back(v);
  std::vector<ProcId> busy;
  for (std::size_t q = 0; q < owned.size(); ++q)
    if (!owned[q].empty()) busy.push_back(static_cast<ProcId>(q));
  fault::ProcFault f;
  f.kind = fault::ProcFaultKind::Kill;
  f.proc = busy[rng() % busy.size()];
  const std::vector<std::size_t>& mine = owned[f.proc];
  f.at_step = pl.time_function.step_of(pl.structure->vertices()[mine[rng() % mine.size()]]);
  return f;
}

struct PassTotals {
  std::vector<double> threads_us, procs_us;  ///< per nest
  double recovery_us = 0;
  double thr_wait = 0, thr_busy = 0, proc_wait = 0, proc_busy = 0, supervise_us = 0;
  std::int64_t messages = 0, hops = 0, recoveries = 0, migrated = 0;
};

void check(const ExecPlan& p, const ArrayStore& got, const std::string& what, Report& r) {
  ++r.attempted;
  EquivalenceReport e = compare_stores(p.reference, got, 0.0);
  if (!e.equal) r.fail(what + " on " + p.name + " differs from run_sequential: " + e.first_mismatch);
}

/// One pass; `kill_index` picks the nest that takes the seeded kill.  With
/// `cpus` given, each run's workers share the quietest of them (see
/// fastest()).
PassTotals run_pass(const std::vector<std::unique_ptr<ExecPlan>>& plans, std::uint64_t seed,
                    std::size_t kill_index, bool phases, Recorder* rec, Report& r,
                    const std::vector<int>& cpus = {}) {
  PassTotals t;
  for (const auto& pp : plans) {
    const ExecPlan& p = *pp;
    const PipelineResult& pl = p.plan;
    {
      (void)quietest_cpu(cpus);
      ParallelRunOptions o;
      o.measure_phases = phases;
      const double t0 = now_us();
      ParallelRunResult res = [&] {
        obs::Span s(rec, "exec.threads");
        return run_parallel(p.nest, *pl.structure, pl.time_function, pl.partition,
                            pl.mapping.mapping, pl.dependence, o);
      }();
      t.threads_us.push_back(now_us() - t0);
      t.messages += res.stats.messages_sent;
      for (std::size_t k = 0; k < res.stats.per_proc_wait_us.size(); ++k) {
        t.thr_wait += res.stats.per_proc_wait_us[k];
        t.thr_busy += res.stats.per_proc_compute_us[k] + res.stats.per_proc_wait_us[k] +
                      res.stats.per_proc_send_us[k];
      }
      check(p, res.written, "run_parallel", r);
    }
    {
      (void)quietest_cpu(cpus);
      ProcRunOptions o;
      o.measure_phases = phases;
      o.allow_degrade = false;
      const double t0 = now_us();
      ProcRunResult res = [&] {
        obs::Span s(rec, "exec.procs");
        return run_procs(p.nest, *pl.structure, pl.time_function, pl.partition,
                         pl.mapping.mapping, pl.dependence, o);
      }();
      t.procs_us.push_back(now_us() - t0);
      t.messages += res.stats.messages_sent;
      t.hops += res.stats.route_hops;
      double longest = 0;
      for (std::size_t k = 0; k < res.stats.per_proc_wait_us.size(); ++k) {
        const double busy = res.stats.per_proc_compute_us[k] + res.stats.per_proc_wait_us[k] +
                            res.stats.per_proc_send_us[k];
        t.proc_wait += res.stats.per_proc_wait_us[k];
        t.proc_busy += busy;
        longest = std::max(longest, busy);
      }
      if (phases) t.supervise_us += res.stats.wall_us - longest;
      check(p, res.written, "run_procs", r);
    }
  }
  // The seeded proc:kill run: detection, remap and epoch restart.
  const ExecPlan& p = *plans[kill_index];
  const PipelineResult& pl = p.plan;
  (void)quietest_cpu(cpus);
  ProcRunOptions o;
  o.allow_degrade = false;
  o.measure_phases = phases;
  o.proc_faults = {seeded_kill(seed, p)};
  const double t0 = now_us();
  ProcRunResult res = [&] {
    obs::Span s(rec, "exec.recovery");
    return run_procs(p.nest, *pl.structure, pl.time_function, pl.partition, pl.mapping.mapping,
                     pl.dependence, o);
  }();
  t.recovery_us = now_us() - t0;
  t.messages += res.stats.messages_sent;
  t.hops += res.stats.route_hops;
  t.recoveries += res.stats.recoveries;
  t.migrated += static_cast<std::int64_t>(res.stats.migrated_blocks);
  check(p, res.written, "run_procs with proc:kill", r);
  ++r.attempted;
  if (res.stats.recoveries < 1) r.fail("proc:kill run on " + p.name + " did not recover");
  return t;
}

void add_counters(const PassTotals& t, Report& r) {
  r.counters["exec.messages"] = t.messages;
  r.counters["exec.route_hops"] = t.hops;
  r.counters["exec.recoveries"] = t.recoveries;
  r.counters["exec.migrated_blocks"] = t.migrated;
}

}  // namespace

void run_exec(const Options& opts, Report& r) {
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setups;
  std::vector<std::unique_ptr<ExecPlan>> plans;
  for (int k = 0; k < 9; ++k) {
    (void)quietest_cpu(cpus);
    const double t0 = now_us();
    plans = build_plans(nullptr);
    setups.push_back((now_us() - t0) / 1e6);
  }
  constexpr std::size_t kill_index = 0;  // sor2d; the seed picks worker and step

  // Every run is timed on its own; each metric is built from the fastest
  // repeat of each run (see fastest()).
  Recorder rec;
  std::vector<std::vector<double>> threads_us(plans.size()), procs_us(plans.size());
  std::vector<double> recovery_us;
  std::size_t passes = 0;
  const double deadline = now_us() + opts.seconds * 1e6;
  PassTotals last;
  do {
    last = run_pass(plans, opts.seed, kill_index, opts.trace, opts.trace ? &rec : nullptr, r, cpus);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      threads_us[i].push_back(last.threads_us[i]);
      procs_us[i].push_back(last.procs_us[i]);
    }
    recovery_us.push_back(last.recovery_us);
    ++passes;
  } while (now_us() < deadline);
  pin_thread(0, cpus);
  add_counters(last, r);

  std::vector<double> runs;
  double threads_best = 0, procs_best = 0;
  JsonWriter per_run;
  per_run.begin_object();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    runs.push_back(fastest(threads_us[i]));
    threads_best += runs.back();
    per_run.field("threads." + plans[i]->name, runs.back());
    runs.push_back(fastest(procs_us[i]));
    procs_best += runs.back();
    per_run.field("procs." + plans[i]->name, runs.back());
  }
  per_run.end_object();
  r.info["run_fastest_us"] = per_run.str();
  const double recovery_best = fastest(recovery_us);
  r.metrics["setup_s"] = median(setups);
  r.metrics["wall_s"] = (threads_best + procs_best + recovery_best) / 1e6;
  r.metrics["latency_p50_us"] = median(runs);
  r.metrics["latency_p99_us"] = percentile(runs, 0.99);
  r.metrics["sustained_rps"] =
      static_cast<double>(runs.size()) / ((threads_best + procs_best) / 1e6);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  r.info["passes"] = std::to_string(passes);
  r.info["threads_wall_ms"] = JsonWriter().value(threads_best / 1e3).str();
  r.info["procs_wall_ms"] = JsonWriter().value(procs_best / 1e3).str();
  r.info["recovery_wall_ms"] = JsonWriter().value(recovery_best / 1e3).str();
  r.info["recovery_median_ms"] = JsonWriter().value(median(recovery_us) / 1e3).str();
  r.info["kill_nest"] = "\"" + plans[kill_index]->name + "\"";
}

void untimed_exec(const Options& opts, Report& r) {
  auto plans = build_plans(nullptr);
  PassTotals t = run_pass(plans, opts.seed, 0, false, nullptr, r);
  add_counters(t, r);
}

void exec_layers(const Options& opts, Report& r) {
  Recorder rec;
  auto plans = build_plans(&rec);
  PassTotals t = run_pass(plans, opts.seed, 0, true, &rec, r);
  add_counters(t, r);
  r.metrics["exec.sequential_us"] = rec.total_us("exec.sequential");
  r.metrics["exec.threads_us"] = rec.total_us("exec.threads");
  r.metrics["exec.threads_wait_share"] = t.thr_busy > 0 ? t.thr_wait / t.thr_busy : 0.0;
  r.metrics["exec.procs_us"] = rec.total_us("exec.procs");
  r.metrics["exec.procs_supervise_us"] = t.supervise_us;
  r.metrics["exec.procs_wait_share"] = t.proc_busy > 0 ? t.proc_wait / t.proc_busy : 0.0;
  r.metrics["exec.recovery_us"] = rec.total_us("exec.recovery");
  for (const char* k : {"exec.messages", "exec.route_hops", "exec.recoveries",
                        "exec.migrated_blocks"})
    r.metrics[k] = static_cast<double>(r.counters[k]);
}

}  // namespace perf
