// Ablation A8 — semantic validation at scale: distributed (message-passing)
// execution equals sequential execution for every workload, plus the cost of
// the interpreters and the volume of value traffic vs the analytic
// interblock-arc counts.
#include "bench_common.hpp"

#include "exec/interpreter.hpp"
#include "exec/parallel_runtime.hpp"
#include "mapping/hypercube_map.hpp"
#include "perf/table.hpp"
#include "sim/report.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;
using bench::Pieces;

void report() {
  bench::banner("Ablation A8: distributed execution == sequential (all workloads)");
  TextTable t({"workload", "iterations", "procs", "interp equal", "threads equal", "elements",
               "value msgs", "halo loads", "mean utilization"});
  auto add = [&](LoopNest nest, unsigned dim) {
    Pieces p(std::move(nest));
    Mapping map = map_to_hypercube(p.tig, dim).mapping;
    ArrayStore seq = run_sequential(p.nest);
    DistributedResult dist =
        run_distributed(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    EquivalenceReport eq = compare_stores(seq, dist.written);
    // And once more on real OS threads with blocking message passing.
    ParallelRunResult par = run_parallel(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    EquivalenceReport eq_par = compare_stores(seq, par.written);
    UtilizationReport util = processor_utilization(*p.q, p.tf, p.partition, map);
    t.row(p.nest.name(), p.q->vertices().size(), std::size_t{1} << dim,
          eq.equal ? "YES" : "NO", eq_par.equal ? "YES" : "NO", eq.compared,
          dist.stats.value_messages, dist.stats.halo_loads, util.mean_utilization);
  };
  add(workloads::example_l1(15), 2);
  add(workloads::matrix_vector(32), 3);
  add(workloads::matrix_multiplication(9), 3);
  add(workloads::sor2d(24, 24), 3);
  add(workloads::convolution1d(48, 16), 2);
  add(workloads::wavefront3d(8), 3);
  add(workloads::transitive_closure(8), 3);
  add(workloads::strided_recurrence(20, 2), 2);
  std::printf("%s", t.to_string().c_str());
  std::printf("\nEvery row must read YES: the Gray-mapped hyperplane execution with\n"
              "explicit value messages reproduces sequential semantics exactly.\n");
}

void bm_sequential_exec(benchmark::State& state) {
  LoopNest nest = workloads::sor2d(state.range(0), state.range(0));
  for (auto _ : state) {
    ArrayStore s = run_sequential(nest);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_sequential_exec)->Arg(16)->Arg(32)->Arg(64)->Complexity()
    ->Unit(benchmark::kMillisecond);

void bm_distributed_exec(benchmark::State& state) {
  Pieces p(workloads::sor2d(state.range(0), state.range(0)));
  Mapping map = map_to_hypercube(p.tig, 3).mapping;
  for (auto _ : state) {
    DistributedResult r = run_distributed(p.nest, *p.q, p.tf, p.partition, map, p.deps);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_distributed_exec)->Arg(16)->Arg(32)->Arg(64)->Complexity()
    ->Unit(benchmark::kMillisecond);

}  // namespace

HYPART_BENCH_MAIN(report)
