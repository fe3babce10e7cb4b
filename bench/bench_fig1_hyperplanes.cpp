// Fig. 1 — the computational structure and hyperplanes of loop (L1).
//
// Reproduces: dependence set D = {(0,1),(1,1),(1,0)}, the 4x4 index set,
// and the hyperplane fronts i+j = 0..6 under Π = (1,1), plus an ASCII
// rendering of the structure.  Benchmarks time dependence analysis and
// schedule profiling.
#include "bench_common.hpp"

#include "graph/comp_structure.hpp"
#include "perf/table.hpp"
#include "schedule/hyperplane.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;

void report() {
  bench::banner("Fig. 1: computational structure & hyperplanes of loop (L1)");

  LoopNest l1 = workloads::example_l1();
  std::printf("%s\n", l1.to_string().c_str());

  ComputationStructure q = ComputationStructure::from_loop(l1);
  std::printf("dependence vectors D = {");
  for (std::size_t k = 0; k < q.dependences().size(); ++k)
    std::printf("%s%s", k ? ", " : "", to_string(q.dependences()[k]).c_str());
  std::printf("}   (paper: {(0,1)t, (1,1)t, (1,0)t})\n");
  std::printf("index set |J^2| = %zu, dependence arcs = %zu (paper: 33)\n",
              q.vertices().size(), q.dependence_arc_count());

  TimeFunction tf{{1, 1}};
  ScheduleProfile p = profile_schedule(tf, q.vertices());
  TextTable t({"hyperplane i+j", "points (executed concurrently)"});
  for (const auto& [step, count] : p.points_per_step) t.row(step, count);
  std::printf("%s", t.to_string().c_str());
  std::printf("schedule span = %lld steps, max parallelism = %zu\n",
              static_cast<long long>(p.span()), p.max_parallelism);

  // ASCII rendering of the structure (j up, i right), hyperplane id per cell.
  std::printf("\nhyperplane index of each iteration (row = j desc, col = i):\n");
  for (std::int64_t j = 3; j >= 0; --j) {
    std::printf("  j=%lld |", static_cast<long long>(j));
    for (std::int64_t i = 0; i <= 3; ++i)
      std::printf(" %lld", static_cast<long long>(tf.step_of(IntVec{i, j})));
    std::printf("\n");
  }
}

void bm_dependence_analysis(benchmark::State& state) {
  LoopNest l1 = workloads::example_l1(state.range(0));
  for (auto _ : state) {
    DependenceInfo info = analyze_dependences(l1);
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(bm_dependence_analysis)->Arg(3)->Arg(15)->Arg(63);

void bm_structure_build(benchmark::State& state) {
  LoopNest l1 = workloads::example_l1(state.range(0));
  for (auto _ : state) {
    ComputationStructure q = ComputationStructure::from_loop(l1);
    benchmark::DoNotOptimize(q);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_structure_build)->Arg(7)->Arg(15)->Arg(31)->Arg(63)->Complexity();

void bm_schedule_profile(benchmark::State& state) {
  ComputationStructure q =
      ComputationStructure::from_loop(workloads::example_l1(state.range(0)));
  TimeFunction tf{{1, 1}};
  for (auto _ : state) {
    ScheduleProfile p = profile_schedule(tf, q.vertices());
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(bm_schedule_profile)->Arg(15)->Arg(63);

}  // namespace

HYPART_BENCH_MAIN(report)
