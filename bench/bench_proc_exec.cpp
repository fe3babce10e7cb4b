// Robustness R1 — the supervised multi-process backend: fork+socket workers
// must reproduce sequential semantics exactly, fault-free and under injected
// worker kills, and its recovery (charged block reassignment + epoch
// restart) is costed against the fault-free run.
//
// Baseline discipline: only schedule-deterministic quantities (message and
// hop counts, worker counts, reassignment accounting, equality verdicts) go
// into bench::metrics().  Timing-dependent counters (heartbeat misses, send
// retries) are printed but never recorded — they would break the
// byte-identical baseline contract.
#include "bench_common.hpp"

#include "exec/interpreter.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec/proc_runtime.hpp"
#include "fault/fault_plan.hpp"
#include "mapping/hypercube_map.hpp"
#include "perf/table.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;
using bench::Pieces;

void report() {
  bench::banner("Robustness R1: supervised process execution == sequential");
  {
    TextTable t({"workload", "iterations", "workers", "procs equal", "threads equal",
                 "value msgs", "route hops", "halo loads"});
    auto add = [&](LoopNest nest, unsigned dim) {
      Pieces p(std::move(nest));
      Mapping map = map_to_hypercube(p.tig, dim).mapping;
      ArrayStore seq = run_sequential(p.nest);
      ProcRunResult procs = run_procs(p.nest, *p.q, p.tf, p.partition, map, p.deps);
      EquivalenceReport eq = compare_stores(seq, procs.written);
      ParallelRunResult threads = run_parallel(p.nest, *p.q, p.tf, p.partition, map, p.deps);
      EquivalenceReport eq_thr = compare_stores(seq, threads.written);
      t.row(p.nest.name(), p.q->vertices().size(), procs.stats.workers,
            eq.equal ? "YES" : "NO", eq_thr.equal ? "YES" : "NO",
            procs.stats.messages_sent, procs.stats.route_hops, procs.stats.halo_loads);
      const std::string key = "proc_exec." + p.nest.name();
      bench::metrics().set_gauge(key + ".equal", eq.equal ? 1.0 : 0.0);
      bench::metrics().add(key + ".messages", procs.stats.messages_sent);
      bench::metrics().add(key + ".route_hops", procs.stats.route_hops);
      bench::metrics().add(key + ".workers",
                           static_cast<std::int64_t>(procs.stats.workers));
    };
    add(workloads::example_l1(12), 2);
    add(workloads::matrix_vector(16), 2);
    add(workloads::sor2d(12, 12), 2);
    add(workloads::convolution1d(32, 8), 2);
    std::printf("%s", t.to_string().c_str());
    std::printf("\nEvery row must read YES twice: real OS processes with framed socket\n"
                "messaging reproduce sequential semantics, same as the threaded backend.\n");
  }

  bench::banner("Robustness R2: recovery cost of one injected worker kill");
  {
    TextTable t({"workload", "fault", "equal", "recoveries", "blocks moved", "words moved",
                 "msgs (faulted)", "msgs (clean)"});
    auto add = [&](LoopNest nest, unsigned dim, const std::string& spec) {
      Pieces p(std::move(nest));
      Mapping map = map_to_hypercube(p.tig, dim).mapping;
      ArrayStore seq = run_sequential(p.nest);
      ProcRunResult clean = run_procs(p.nest, *p.q, p.tf, p.partition, map, p.deps);
      ProcRunOptions opts;
      opts.heartbeat_interval_ms = 10;
      opts.heartbeat_timeout_ms = 1000;
      opts.proc_faults = fault::FaultPlan::parse(spec).proc_faults;
      ProcRunResult faulted = run_procs(p.nest, *p.q, p.tf, p.partition, map, p.deps, opts);
      EquivalenceReport eq = compare_stores(seq, faulted.written);
      t.row(p.nest.name(), spec, eq.equal ? "YES" : "NO", faulted.stats.recoveries,
            faulted.stats.migrated_blocks, faulted.stats.migration_words,
            faulted.stats.messages_sent, clean.stats.messages_sent);
      const std::string key = "proc_recover." + p.nest.name();
      bench::metrics().set_gauge(key + ".equal", eq.equal ? 1.0 : 0.0);
      bench::metrics().add(key + ".recoveries", faulted.stats.recoveries);
      bench::metrics().add(key + ".migrated_blocks",
                           static_cast<std::int64_t>(faulted.stats.migrated_blocks));
      bench::metrics().add(key + ".migration_words", faulted.stats.migration_words);
    };
    add(workloads::matrix_vector(16), 2, "proc:kill:1@2");
    add(workloads::sor2d(10, 10), 2, "proc:kill:0");
    add(workloads::example_l1(10), 1, "proc:kill:1@3");
    std::printf("%s", t.to_string().c_str());
    std::printf("\nThe kill really happens (SIGKILL mid-schedule); the supervisor detects\n"
                "it, charges the block migration shown, restarts the epoch on the\n"
                "survivors, and the output still matches sequential bit for bit.\n");
  }
}

void bm_threads_exec(benchmark::State& state) {
  Pieces p(workloads::sor2d(state.range(0), state.range(0)));
  Mapping map = map_to_hypercube(p.tig, 2).mapping;
  for (auto _ : state) {
    ParallelRunResult r = run_parallel(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_threads_exec)->Arg(8)->Arg(16)->Arg(24)->Complexity()
    ->Unit(benchmark::kMillisecond);

void bm_procs_exec(benchmark::State& state) {
  Pieces p(workloads::sor2d(state.range(0), state.range(0)));
  Mapping map = map_to_hypercube(p.tig, 2).mapping;
  for (auto _ : state) {
    ProcRunResult r = run_procs(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_procs_exec)->Arg(8)->Arg(16)->Arg(24)->Complexity()
    ->Unit(benchmark::kMillisecond);

void bm_procs_recovery(benchmark::State& state) {
  Pieces p(workloads::sor2d(state.range(0), state.range(0)));
  Mapping map = map_to_hypercube(p.tig, 2).mapping;
  ProcRunOptions opts;
  opts.heartbeat_interval_ms = 10;
  opts.heartbeat_timeout_ms = 1000;
  opts.proc_faults = fault::FaultPlan::parse("proc:kill:1@2").proc_faults;
  for (auto _ : state) {
    ProcRunResult r = run_procs(p.nest, *p.q, p.tf, p.partition, map, p.deps, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_procs_recovery)->Arg(8)->Arg(16)->Complexity()
    ->Unit(benchmark::kMillisecond);

}  // namespace

HYPART_BENCH_MAIN(report)
