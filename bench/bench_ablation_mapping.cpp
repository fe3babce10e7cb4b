// Ablation A1 — mapping quality: Algorithm 2's Gray-code bisection vs.
// topology-oblivious placements (random, round-robin, contiguous) and a
// greedy-swap refinement, measured as weight*hops communication cost and
// simulated execution time on the hypercube.
#include "bench_common.hpp"

#include "mapping/baseline_map.hpp"
#include "mapping/hypercube_map.hpp"
#include "perf/table.hpp"
#include "sim/exec_sim.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;
using bench::Pieces;

void compare(const char* title, Pieces& p, unsigned dim, std::int64_t flops) {
  Hypercube cube(dim);
  const std::size_t nprocs = std::size_t{1} << dim;
  std::printf("\n%s (blocks=%zu, procs=%zu)\n", title, p.tig.vertex_count(), nprocs);

  SimOptions sim_opts;
  sim_opts.accounting = CommAccounting::PerStepBarrier;
  sim_opts.charge_hops = true;
  sim_opts.flops_per_iteration = flops;
  MachineParams machine{1.0, 50.0, 5.0};

  TextTable t({"mapping", "comm cost (w*hops)", "cut volume", "avg hops", "sim T", "speedup"});
  auto add = [&](const Mapping& m) {
    MappingMetrics met = evaluate_mapping(p.tig, m, cube);
    SimResult r = simulate_execution(*p.q, p.tf, p.partition, m, cube, machine, sim_opts);
    double seq = static_cast<double>(p.q->vertices().size()) * static_cast<double>(flops) *
                 machine.t_calc;
    t.row(m.method, met.total_comm_cost, met.cut_comm_volume, met.avg_hops_weighted, r.time,
          seq / r.time);
  };
  add(map_to_hypercube(p.tig, dim).mapping);
  {
    HypercubeMapOptions weighted;
    weighted.weighted = true;
    Mapping m = map_to_hypercube(p.tig, dim, weighted).mapping;
    m.method = "gray-bisection(weighted)";
    add(m);
  }
  add(map_contiguous(p.tig, nprocs));
  add(map_round_robin(p.tig, nprocs));
  add(map_random(p.tig, nprocs, 12345));
  add(refine_greedy_swap(p.tig, map_random(p.tig, nprocs, 12345), cube));
  std::printf("%s", t.to_string().c_str());
}

void report() {
  bench::banner("Ablation A1: Gray-code bisection vs baseline mappings");
  {
    Pieces p(workloads::matrix_vector(64), {1, 1});
    compare("matvec M=64 on 3-cube", p, 3, 2);
  }
  {
    Pieces p(workloads::matrix_multiplication(15), {1, 1, 1});
    compare("matmul 16^3 on 4-cube", p, 4, 2);
  }
  {
    Pieces p(workloads::sor2d(48, 48), {1, 1});
    compare("sor2d 48x48 on 4-cube", p, 4, 4);
  }
}

void bm_gray_mapping(benchmark::State& state) {
  Pieces p(workloads::matrix_vector(state.range(0)), {1, 1});
  for (auto _ : state) {
    HypercubeMappingResult r = map_to_hypercube(p.tig, 4);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(bm_gray_mapping)->Arg(64)->Arg(128)->Arg(256);

void bm_greedy_refinement(benchmark::State& state) {
  Pieces p(workloads::matrix_vector(state.range(0)), {1, 1});
  Hypercube cube(3);
  Mapping start = map_random(p.tig, 8, 1);
  for (auto _ : state) {
    Mapping m = refine_greedy_swap(p.tig, start, cube, 2);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(bm_greedy_refinement)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

HYPART_BENCH_MAIN(report)
