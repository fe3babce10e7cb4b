// Ablation A6 — network contention: how much the paper's contention-free
// accounting underestimates when messages share physical links.
//
// Compares the three accounting conventions (PaperMaxChannel,
// PerStepBarrier, LinkContention with e-cube routing) across mappings; the
// Gray mapping keeps every message on one link, so its contention penalty
// is nil, while scattered placements congest shared links.
#include "bench_common.hpp"

#include "mapping/baseline_map.hpp"
#include "mapping/hypercube_map.hpp"
#include "perf/table.hpp"
#include "sim/exec_sim.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;
using bench::Pieces;

void contention_table(const char* title, Pieces& p, unsigned dim, std::int64_t flops) {
  Hypercube cube(dim);
  MachineParams machine{1.0, 50.0, 5.0};
  std::printf("\n%s (procs = %zu)\n", title, cube.size());
  TextTable t({"mapping", "paper-max-channel T", "barrier T", "contention T",
               "max link words", "contention/barrier"});
  auto add = [&](const Mapping& m) {
    SimOptions paper, barrier, cont;
    paper.accounting = CommAccounting::PaperMaxChannel;
    barrier.accounting = CommAccounting::PerStepBarrier;
    cont.accounting = CommAccounting::LinkContention;
    paper.flops_per_iteration = barrier.flops_per_iteration = cont.flops_per_iteration = flops;
    cont.obs = bench::obs_context();
    SimResult rp = simulate_execution(*p.q, p.tf, p.partition, m, cube, machine, paper);
    SimResult rb = simulate_execution(*p.q, p.tf, p.partition, m, cube, machine, barrier);
    SimResult rc = simulate_execution(*p.q, p.tf, p.partition, m, cube, machine, cont);
    t.row(m.method, rp.time, rb.time, rc.time, rc.max_link_words, rc.time / rb.time);
  };
  add(map_to_hypercube(p.tig, dim).mapping);
  add(map_contiguous(p.tig, cube.size()));
  add(map_round_robin(p.tig, cube.size()));
  add(map_random(p.tig, cube.size(), 7));
  std::printf("%s", t.to_string().c_str());
}

void report() {
  bench::banner("Ablation A6: link contention vs contention-free accounting");
  {
    Pieces p(workloads::matrix_vector(64), {1, 1});
    contention_table("matvec M=64, 3-cube", p, 3, 2);
  }
  {
    Pieces p(workloads::sor2d(32, 32), {1, 1});
    contention_table("sor2d 32x32, 4-cube", p, 4, 3);
  }
  std::printf(
      "\nReading: the Gray mapping routes every message over exactly one link,\n"
      "so contention time <= the sender-serialized barrier model; scattered\n"
      "mappings overlap routes on shared links and the busiest-link word count\n"
      "grows by the average route length.\n");
}

void bm_contention_sim(benchmark::State& state) {
  Pieces p(workloads::matrix_vector(state.range(0)), {1, 1});
  Mapping m = map_to_hypercube(p.tig, 3).mapping;
  Hypercube cube(3);
  SimOptions opts;
  opts.accounting = CommAccounting::LinkContention;
  for (auto _ : state) {
    SimResult r = simulate_execution(*p.q, p.tf, p.partition, m, cube, MachineParams{}, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_contention_sim)->Arg(32)->Arg(64)->Arg(128)->Complexity()
    ->Unit(benchmark::kMillisecond);

void bm_ecube_routing(benchmark::State& state) {
  Hypercube cube(10);
  for (auto _ : state) {
    std::size_t total = 0;
    for (ProcId a = 0; a < 64; ++a)
      for (ProcId b = 0; b < 64; ++b) total += cube.ecube_route(a, b).size();
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(bm_ecube_routing);

}  // namespace

HYPART_BENCH_MAIN(report)
