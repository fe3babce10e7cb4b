// hypart::fault — fault plans, degraded routing, spare-node remapping and
// the degraded simulator, including the headline acceptance scenario: a
// single failed node on a 16-node cube completes with failed_nodes=1 and a
// strictly higher total cost than the fault-free run.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "core/error.hpp"
#include "exec/parallel_runtime.hpp"
#include "fault/degraded_route.hpp"
#include "fault/remap.hpp"
#include "loop/iter_space.hpp"
#include "mapping/hypercube_map.hpp"
#include "sim/exec_sim.hpp"
#include "workloads/workloads.hpp"
#include "sim_oracle.hpp"

namespace hypart {
namespace {

using fault::FaultPlan;
using fault::FaultSet;
using fault::kFromStart;

// ---------------------------------------------------------------- parsing --

TEST(FaultPlan, ParsesExplicitTerms) {
  FaultPlan p = FaultPlan::parse("node:5,node:3@7,link:2-6@4");
  ASSERT_EQ(p.node_faults.size(), 2u);
  EXPECT_EQ(p.node_faults[0].node, 5u);
  EXPECT_EQ(p.node_faults[0].at_step, kFromStart);
  EXPECT_EQ(p.node_faults[1].node, 3u);
  EXPECT_EQ(p.node_faults[1].at_step, 7);
  ASSERT_EQ(p.link_faults.size(), 1u);
  EXPECT_EQ(p.link_faults[0].a, 2u);
  EXPECT_EQ(p.link_faults[0].b, 6u);
  EXPECT_EQ(p.link_faults[0].at_step, 4);
  EXPECT_FALSE(p.sampler.has_value());
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlan, ParsesSampler) {
  FaultPlan p = FaultPlan::parse("rand:42:2n1l");
  ASSERT_TRUE(p.sampler.has_value());
  EXPECT_EQ(p.sampler->seed, 42u);
  EXPECT_EQ(p.sampler->nodes, 2u);
  EXPECT_EQ(p.sampler->links, 1u);
}

TEST(FaultPlan, MalformedSpecsThrowTyped) {
  for (const char* bad : {"bogus", "node:", "node:x", "node:1@", "link:2", "link:2-",
                          "link:a-b", "rand:1", "rand:1:zz", "rand:1:0n0l", ""}) {
    try {
      FaultPlan::parse(bad);
      FAIL() << "spec '" << bad << "' should not parse";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Fault) << bad;
      EXPECT_EQ(e.exit_code(), 77) << bad;
    }
  }
}

// -------------------------------------------------------------- resolving --

TEST(FaultPlan, ResolveValidatesAgainstCube) {
  Hypercube cube(2);
  EXPECT_THROW(FaultPlan::parse("node:4").resolve(cube), FaultError);
  EXPECT_THROW(FaultPlan::parse("link:0-3").resolve(cube), FaultError);  // not an edge
  EXPECT_THROW(FaultPlan::parse("node:0,node:1,node:2,node:3").resolve(cube),
               FaultError);  // would kill every node
}

TEST(FaultPlan, EarliestFailureWins) {
  Hypercube cube(3);
  FaultSet s = FaultPlan::parse("node:5@4,node:5").resolve(cube);
  ASSERT_TRUE(s.node_fail_step(5).has_value());
  EXPECT_EQ(*s.node_fail_step(5), kFromStart);
}

TEST(FaultPlan, SamplerIsDeterministicAndDistinct) {
  Hypercube cube(4);
  FaultSet a = FaultPlan::parse("rand:7:3n2l").resolve(cube);
  FaultSet b = FaultPlan::parse("rand:7:3n2l").resolve(cube);
  EXPECT_EQ(a.failed_node_count(), 3u);
  EXPECT_EQ(a.failed_link_count(), 2u);
  std::set<ProcId> nodes_a, nodes_b;
  for (const auto& nf : a.node_failures_in_order()) nodes_a.insert(nf.node);
  for (const auto& nf : b.node_failures_in_order()) nodes_b.insert(nf.node);
  EXPECT_EQ(nodes_a.size(), 3u);  // distinct draws
  EXPECT_EQ(nodes_a, nodes_b);    // same seed, same machine -> same faults
  EXPECT_EQ(a.link_failures(), b.link_failures());
  FaultSet c = FaultPlan::parse("rand:8:3n2l").resolve(cube);
  std::set<ProcId> nodes_c;
  for (const auto& nf : c.node_failures_in_order()) nodes_c.insert(nf.node);
  EXPECT_TRUE(nodes_c != nodes_a || c.link_failures() != a.link_failures())
      << "different seeds should (here) draw different faults";
}

TEST(FaultSet, StepAwareQueries) {
  Hypercube cube(3);
  FaultSet s = FaultPlan::parse("node:2@5,link:0-1@3").resolve(cube);
  EXPECT_FALSE(s.node_failed_at(2, 4));
  EXPECT_TRUE(s.node_failed_at(2, 5));
  EXPECT_TRUE(s.node_ever_fails(2));
  EXPECT_FALSE(s.link_failed_at(0, 1, 2));
  EXPECT_TRUE(s.link_failed_at(1, 0, 3));  // endpoint order irrelevant
  // A link is failed whenever either endpoint node is down.
  EXPECT_FALSE(s.link_failed_at(2, 6, 4));
  EXPECT_TRUE(s.link_failed_at(2, 6, 5));
}

// ---------------------------------------------------------------- routing --

TEST(DegradedRoute, IntactEcubePathIsKept) {
  Hypercube cube(3);
  FaultSet s = FaultPlan::parse("link:0-1").resolve(cube);
  fault::Route r = fault::route_with_faults(cube, 0, 6, s, 0);
  EXPECT_FALSE(r.rerouted);
  EXPECT_EQ(r.hops, cube.ecube_route(0, 6));
  EXPECT_EQ(fault::degraded_distance(cube, 0, 6, s, 0), cube.distance(0, 6));
}

TEST(DegradedRoute, DetoursAroundFailedLink) {
  Hypercube cube(3);
  FaultSet s = FaultPlan::parse("link:0-1").resolve(cube);
  fault::Route r = fault::route_with_faults(cube, 0, 1, s, 0);
  EXPECT_TRUE(r.rerouted);
  EXPECT_EQ(r.hops.size(), 3u);  // shortest live detour, e.g. 0->2->3->1
  EXPECT_EQ(r.hops.back(), 1u);
  EXPECT_EQ(fault::degraded_distance(cube, 0, 1, s, 0), 3);
  // Identical on every call: the fallback search is deterministic.
  EXPECT_EQ(fault::route_with_faults(cube, 0, 1, s, 0).hops, r.hops);
}

TEST(DegradedRoute, DetoursAroundFailedIntermediateNode) {
  Hypercube cube(2);
  FaultSet s = FaultPlan::parse("node:1").resolve(cube);
  // e-cube 0->3 goes 0->1->3; node 1 is down, so the detour is 0->2->3.
  fault::Route r = fault::route_with_faults(cube, 0, 3, s, 0);
  EXPECT_TRUE(r.rerouted);
  EXPECT_EQ(r.hops, (std::vector<ProcId>{2, 3}));
}

TEST(DegradedRoute, FailedEndpointsAreExempt) {
  Hypercube cube(2);
  FaultSet s = FaultPlan::parse("node:1").resolve(cube);
  fault::Route r = fault::route_with_faults(cube, 1, 0, s, 0);
  EXPECT_FALSE(r.rerouted);
  EXPECT_EQ(r.hops, (std::vector<ProcId>{0}));
}

TEST(DegradedRoute, DisconnectedPairThrows) {
  Hypercube cube(2);
  // Both intermediates of 0<->3 are down; endpoints are exempt but no
  // live path remains.
  FaultSet s = FaultPlan::parse("node:1,node:2").resolve(cube);
  EXPECT_THROW(fault::route_with_faults(cube, 0, 3, s, 0), FaultError);
}

TEST(DegradedRoute, StepGatesTheFailure) {
  Hypercube cube(3);
  FaultSet s = FaultPlan::parse("link:0-1@10").resolve(cube);
  EXPECT_FALSE(fault::route_with_faults(cube, 0, 1, s, 9).rerouted);
  EXPECT_TRUE(fault::route_with_faults(cube, 0, 1, s, 10).rerouted);
}

// -------------------------------------------------------------- remapping --

struct SimFixture {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  TimeFunction tf;
  DependenceInfo deps;
  LoopNest nest;

  explicit SimFixture(LoopNest n) : nest(std::move(n)) {
    deps = analyze_dependences(nest);
    IndexSet is(nest);
    q = std::make_unique<ComputationStructure>(is.points(), deps.distance_vectors());
    tf = *search_time_function(*q);
    ps = std::make_unique<ProjectedStructure>(*q, tf);
    grouping = Grouping::compute(*ps);
    partition = Partition::build(*q, grouping);
    tig = TaskInteractionGraph::from_partition(*q, partition, grouping);
  }
};

/// Round-robin mapping: deterministic block placement so the tests know
/// exactly which processors own work.
Mapping modular_mapping(const Partition& part, std::size_t nprocs) {
  Mapping m;
  m.processor_count = nprocs;
  m.block_to_proc.resize(part.block_count());
  for (std::size_t b = 0; b < part.block_count(); ++b) m.block_to_proc[b] = b % nprocs;
  return m;
}

TEST(Remap, MovesBlocksOffFailedNodeToLiveNeighbor) {
  SimFixture f(workloads::sor2d(8, 8));
  Hypercube cube(2);
  Mapping map = modular_mapping(f.partition, 4);
  FaultSet s = FaultPlan::parse("node:1").resolve(cube);
  fault::RemapResult r = fault::remap_for_faults(f.partition, map, cube, s);

  std::int64_t words = 0;
  for (std::size_t b = 0; b < map.block_to_proc.size(); ++b) {
    EXPECT_NE(r.mapping.block_to_proc[b], 1u) << "block " << b << " left on the failed node";
    if (map.block_to_proc[b] == 1) {
      words += static_cast<std::int64_t>(f.partition.blocks()[b].iterations.size());
      EXPECT_TRUE(cube.are_neighbors(1, r.mapping.block_to_proc[b]));
    } else {
      EXPECT_EQ(r.mapping.block_to_proc[b], map.block_to_proc[b]) << "survivor block moved";
    }
  }
  ASSERT_GT(words, 0) << "fixture must place blocks on the failed node";
  EXPECT_EQ(r.migration_words, words);
  EXPECT_EQ(r.migration_cost.calc, 0);
  EXPECT_EQ(r.migration_cost.start, words);
  EXPECT_EQ(r.migration_cost.comm, words);
}

TEST(Remap, TimelineIsStepAware) {
  SimFixture f(workloads::sor2d(8, 8));
  Hypercube cube(2);
  Mapping map = modular_mapping(f.partition, 4);
  FaultSet s = FaultPlan::parse("node:1@6").resolve(cube);
  fault::RemapResult r = fault::remap_for_faults(f.partition, map, cube, s);
  for (std::size_t b = 0; b < map.block_to_proc.size(); ++b) {
    EXPECT_EQ(r.proc_at(b, 5), map.block_to_proc[b]);
    EXPECT_EQ(r.proc_at(b, 6), r.mapping.block_to_proc[b]);
  }
}

TEST(Remap, CascadingFailuresHandBlocksOn) {
  SimFixture f(workloads::sor2d(8, 8));
  Hypercube cube(3);
  Mapping map = modular_mapping(f.partition, 8);
  // Node 1 dies first; node 3 (a neighbor that may have inherited blocks)
  // dies later.  Nothing may end up on either.
  FaultSet s = FaultPlan::parse("node:1@2,node:3@5").resolve(cube);
  fault::RemapResult r = fault::remap_for_faults(f.partition, map, cube, s);
  for (std::size_t b = 0; b < r.mapping.block_to_proc.size(); ++b) {
    EXPECT_NE(r.mapping.block_to_proc[b], 1u);
    EXPECT_NE(r.mapping.block_to_proc[b], 3u);
  }
}

TEST(Remap, RandomFaultSetsMatchPerBlockTimeline) {
  // proc_at against a per-block ownership timeline rebuilt here from the
  // input mapping and the migration list (fault-free owner, then each
  // migration in event order; the last entry owned from a step on wins):
  // random node-fault sets on Q3 and Q4, with spares that fail later and
  // failures that share a step, at every break step and the steps just
  // before and after it.
  std::mt19937 rng(0xFA17);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  int cascades = 0, shared_steps = 0, remaps = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Hypercube cube(trial % 2 == 0 ? 3 : 4);
    const auto last_proc = static_cast<std::int64_t>(cube.size()) - 1;
    const std::size_t nblocks = static_cast<std::size_t>(pick(1, 40));
    std::vector<std::int64_t> sizes(nblocks);
    Mapping map;
    map.processor_count = cube.size();
    map.block_to_proc.resize(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b) {
      sizes[b] = pick(1, 9);
      map.block_to_proc[b] = static_cast<ProcId>(pick(0, last_proc));
    }
    // One to three failed nodes at steps 0..4; step 0 means "from the
    // start", and the narrow range makes shared steps common.
    std::string plan;
    std::set<ProcId> failed;
    const std::int64_t nfail = pick(1, 3);
    while (static_cast<std::int64_t>(failed.size()) < nfail) {
      const auto node = static_cast<ProcId>(pick(0, last_proc));
      if (!failed.insert(node).second) continue;
      const std::int64_t step = pick(0, 4);
      plan += (plan.empty() ? "node:" : ",node:") + std::to_string(node);
      if (step > 0) plan += "@" + std::to_string(step);
    }
    SCOPED_TRACE(plan);
    const FaultSet faults = FaultPlan::parse(plan).resolve(cube);
    fault::RemapResult r;
    try {
      r = fault::remap_for_faults(sizes, map, cube, faults);
    } catch (const FaultError&) {
      continue;  // a failed node with no live neighbor
    }
    ++remaps;

    std::vector<std::vector<std::pair<std::int64_t, ProcId>>> timeline(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b)
      timeline[b].emplace_back(fault::kFromStart, map.block_to_proc[b]);
    std::set<ProcId> received;
    bool cascade = false;
    for (const fault::Migration& m : r.migrations) {
      ASSERT_LT(m.block, nblocks);
      EXPECT_EQ(timeline[m.block].back().second, m.from);
      timeline[m.block].emplace_back(m.at_step, m.to);
      cascade = cascade || received.contains(m.from);
      received.insert(m.to);
    }
    cascades += cascade ? 1 : 0;
    auto reference = [&](std::size_t b, std::int64_t step) {
      ProcId owner = timeline[b].front().second;
      for (const auto& [from, proc] : timeline[b]) {
        if (from > step) break;
        owner = proc;
      }
      return owner;
    };

    std::vector<std::int64_t> steps{std::numeric_limits<std::int64_t>::max()};
    std::set<std::int64_t> fail_steps;
    const std::vector<fault::NodeFault> events = faults.node_failures_in_order();
    for (const fault::NodeFault& nf : events) {
      fail_steps.insert(nf.at_step);
      steps.push_back(nf.at_step);
      steps.push_back(nf.at_step + 1);
      if (nf.at_step != fault::kFromStart) steps.push_back(nf.at_step - 1);
    }
    shared_steps += fail_steps.size() < events.size() ? 1 : 0;
    for (std::size_t b = 0; b < nblocks; ++b) {
      for (std::int64_t step : steps) {
        const ProcId got = r.proc_at(b, step);
        EXPECT_EQ(got, reference(b, step)) << "block " << b << " step " << step;
        EXPECT_FALSE(faults.node_failed_at(got, step)) << "block " << b << " step " << step;
      }
      EXPECT_EQ(r.proc_at(b, std::numeric_limits<std::int64_t>::max()), r.mapping.block_to_proc[b]);
    }
  }
  EXPECT_GE(remaps, 60);
  EXPECT_GE(cascades, 1) << "no spare failed after inheriting blocks";
  EXPECT_GE(shared_steps, 1) << "no two failures shared a step";
}

TEST(Remap, NoLiveNeighborThrows) {
  SimFixture f(workloads::sor2d(6, 6));
  Hypercube cube(2);
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc.assign(f.partition.block_count(), 0);
  // 0's neighbors (1, 2) die with it; the blocks on 0 have nowhere to go.
  FaultSet s = FaultPlan::parse("node:0,node:1,node:2").resolve(cube);
  EXPECT_THROW(fault::remap_for_faults(f.partition, map, cube, s), FaultError);
}

// -------------------------------------------------- degraded simulation ----

TEST(DegradedSim, SingleNodeFailureOnSixteenNodeCube) {
  // Acceptance scenario: 16-node cube, node 5 failed from the start.
  SimFixture f(workloads::sor2d(12, 12));
  Hypercube cube(4);
  Mapping map = map_to_hypercube(f.tig, 4).mapping;
  MachineParams machine;

  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    SimOptions clean;
    clean.accounting = acc;
    SimResult ok = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, clean);

    SimOptions damaged = clean;
    damaged.faults = FaultPlan::parse("node:5");
    SimResult deg = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, damaged);

    EXPECT_EQ(ok.failed_nodes, 0);
    EXPECT_EQ(deg.failed_nodes, 1);
    EXPECT_GT(deg.migrated_blocks, 0);
    EXPECT_GT(deg.migration_cost.start, 0);
    EXPECT_GT(deg.time, ok.time) << "accounting mode " << static_cast<int>(acc);
  }
}

TEST(DegradedSim, FailedLinkReroutesUnderContention) {
  SimFixture f(workloads::sor2d(10, 10));
  Hypercube cube(3);
  Mapping map = map_to_hypercube(f.tig, 3).mapping;
  MachineParams machine;
  SimOptions opts;
  opts.accounting = CommAccounting::LinkContention;
  SimResult ok = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, opts);

  // Fail every cube edge incident to proc 0's dimension-0 link; traffic
  // crossing it must detour.
  opts.faults = FaultPlan::parse("link:0-1");
  SimResult deg = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, opts);
  EXPECT_EQ(deg.failed_links, 1);
  EXPECT_EQ(deg.failed_nodes, 0);
  EXPECT_EQ(deg.migrated_blocks, 0);
  EXPECT_GT(deg.rerouted_messages, 0) << "traffic crossed 0-1, so detours must happen";
  // Detoured traffic can land on otherwise-idle links, so the busiest-link
  // total — and with it the contention cost — need not grow; it must never
  // shrink.
  EXPECT_GE(deg.time, ok.time);
}

TEST(DegradedSim, FaultsOnNonHypercubeThrow) {
  SimFixture f(workloads::sor2d(6, 6));
  Mesh2D mesh(2, 2);
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc.assign(f.partition.block_count(), 0);
  MachineParams machine;
  SimOptions opts;
  opts.faults = FaultPlan::parse("node:1");
  EXPECT_THROW(simulate_execution(*f.q, f.tf, f.partition, map, mesh, machine, opts),
               FaultError);
}

TEST(DegradedSim, FaultFreePlanMatchesBaseline) {
  SimFixture f(workloads::matrix_vector(8));
  Hypercube cube(2);
  Mapping map = map_to_hypercube(f.tig, 2).mapping;
  MachineParams machine;
  SimResult a = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, {});
  SimOptions opts;  // default-constructed plan: empty
  SimResult b = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, opts);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(b.failed_nodes, 0);
  EXPECT_EQ(b.rerouted_messages, 0);
}

// ------------------------------------------------------------- properties --

class FaultPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(FaultPlanProperty, DegradedCostNeverBeatsFaultFree) {
  const int seed = GetParam();
  SimFixture f(workloads::sor2d(10, 10));
  Hypercube cube(3);
  Mapping map = map_to_hypercube(f.tig, 3).mapping;
  MachineParams machine;
  for (CommAccounting acc :
       {CommAccounting::PaperMaxChannel, CommAccounting::LinkContention}) {
    SimOptions opts;
    opts.accounting = acc;
    SimResult ok = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, opts);
    opts.faults = FaultPlan::parse("rand:" + std::to_string(seed) + ":1n1l");
    SimResult deg = simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, opts);
    EXPECT_GE(deg.time, ok.time) << "seed " << seed << " acc " << static_cast<int>(acc);
  }

  // The dense and line-based degraded results against the brute-force
  // oracle, under all three accountings, with and without hop charging.
  IterSpace space(f.nest, f.deps.distance_vectors());
  ProjectedStructure ps(space, f.tf);
  Grouping gs = Grouping::compute(ps);
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    for (bool hops : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " acc " +
                   std::to_string(static_cast<int>(acc)) + (hops ? " hops" : ""));
      SimOptions opts;
      opts.accounting = acc;
      opts.charge_hops = hops;
      opts.faults = FaultPlan::parse("rand:" + std::to_string(seed) + ":1n1l");
      const SimResult want = oracle::simulate(*f.q, f.tf, f.partition, map, cube, machine, opts);
      oracle::expect_matches(
          simulate_execution(*f.q, f.tf, f.partition, map, cube, machine, opts), want);
      oracle::expect_matches(simulate_execution(space, gs, map, cube, machine, opts), want);
    }
  }
}

TEST_P(FaultPlanProperty, RemappedParallelRunMatchesSequential) {
  const int seed = GetParam();
  SimFixture f(workloads::sor2d(8, 8));
  Hypercube cube(3);
  Mapping map = map_to_hypercube(f.tig, 3).mapping;
  FaultSet s = FaultPlan::parse("rand:" + std::to_string(seed) + ":2n").resolve(cube);
  fault::RemapResult r = fault::remap_for_faults(f.partition, map, cube, s);
  ArrayStore seq = run_sequential(f.nest);
  ParallelRunResult par = run_parallel(f.nest, *f.q, f.tf, f.partition, r.mapping, f.deps);
  EquivalenceReport rep = compare_stores(seq, par.written);
  EXPECT_TRUE(rep.equal) << "seed " << seed << ": " << rep.first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace hypart
