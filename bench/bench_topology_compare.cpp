// Ablation A7 — beyond hypercubes: the bisect-then-number mapping on mesh
// and ring machines (the paper restricts Section IV to hypercubes; this
// quantifies what the richer topology buys).
#include "bench_common.hpp"

#include "mapping/hypercube_map.hpp"
#include "mapping/other_topologies.hpp"
#include "perf/table.hpp"
#include "sim/exec_sim.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;
using bench::Pieces;

void topo_table(const char* title, Pieces& p, std::int64_t flops) {
  // 16 processors in each shape.
  Hypercube cube(4);
  Mesh2D mesh(4, 4);
  Ring ring(16);
  FullyConnected fc(16);
  MachineParams machine{1.0, 50.0, 5.0};
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  opts.charge_hops = true;
  opts.flops_per_iteration = flops;

  std::printf("\n%s (16 processors each)\n", title);
  TextTable t({"topology", "mapping", "comm cost (w*hops)", "avg hops", "sim T"});
  auto add = [&](const Topology& topo, const Mapping& m) {
    MappingMetrics met = evaluate_mapping(p.tig, m, topo);
    SimResult r = simulate_execution(*p.q, p.tf, p.partition, m, topo, machine, opts);
    t.row(topo.name(), m.method, met.total_comm_cost, met.avg_hops_weighted, r.time);
  };
  add(cube, map_to_hypercube(p.tig, 4).mapping);
  add(mesh, map_to_mesh(p.tig, mesh));
  add(ring, map_to_ring(p.tig, 16));
  {
    Mapping m = map_to_ring(p.tig, 16);  // any balanced mapping; distance is 1 anyway
    m.method = "contiguous";
    add(fc, m);
  }
  std::printf("%s", t.to_string().c_str());
}

void report() {
  bench::banner("Ablation A7: hypercube vs mesh vs ring vs fully-connected");
  {
    Pieces p(workloads::matrix_vector(64), {1, 1});
    topo_table("matvec M=64 (1-D block chain)", p, 2);
  }
  {
    Pieces p(workloads::matrix_multiplication(15), {1, 1, 1});
    topo_table("matmul 16^3 (2-D block lattice)", p, 2);
  }
  {
    Pieces p(workloads::sor2d(32, 32), {1, 1});
    topo_table("sor2d 32x32", p, 3);
  }
  std::printf(
      "\nReading: the 1-D chain maps perfectly onto every topology (neighbor\n"
      "traffic only), so richer networks buy nothing; the 2-D block lattice of\n"
      "matmul needs the mesh/hypercube to keep both lattice directions local,\n"
      "and the ring pays multi-hop costs along the second direction.\n");
}

void bm_mesh_mapping(benchmark::State& state) {
  Pieces p(workloads::matrix_multiplication(state.range(0)), {1, 1, 1});
  Mesh2D mesh(4, 4);
  for (auto _ : state) {
    Mapping m = map_to_mesh(p.tig, mesh);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(bm_mesh_mapping)->Arg(7)->Arg(11)->Arg(15);

void bm_ring_mapping(benchmark::State& state) {
  Pieces p(workloads::matrix_vector(state.range(0)), {1, 1});
  for (auto _ : state) {
    Mapping m = map_to_ring(p.tig, 16);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(bm_ring_mapping)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

HYPART_BENCH_MAIN(report)
