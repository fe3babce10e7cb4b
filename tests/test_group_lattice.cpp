// Property suite for the closed-form group lattice: every quantity the
// lattice derives symbolically (group count, population multiset, block
// statistics, per-offset TIG arc weights, Algorithm 2 cube assignment,
// theorem/lemma verdicts) must equal the dense Algorithm 1/2 pipeline on
// the same nest — over fixed paper workloads AND randomized rectangular,
// triangular, strided, 3-D, and disjunctive-bound nests.
#include "partition/group_lattice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "graph/comp_structure.hpp"
#include "loop/iter_space.hpp"
#include "mapping/hypercube_map.hpp"
#include "mapping/tig.hpp"
#include "partition/blocks.hpp"
#include "partition/projection.hpp"
#include "schedule/hyperplane.hpp"
#include "workloads/workloads.hpp"
#include "sim_oracle.hpp"

namespace hypart {
namespace {

using GroupKey = GroupLattice::GroupKey;
using GroupOffset = LatticeSweepResult::GroupOffset;

/// Run both pipelines on `nest` and compare every lattice-derived quantity
/// against its dense counterpart.  `pi` empty means "search".
void expect_lattice_matches_dense(const LoopNest& nest, const IntVec& pi_or_empty,
                                  unsigned cube_dim, bool weighted) {
  SCOPED_TRACE(nest.name() + " dim=" + std::to_string(cube_dim) +
               (weighted ? " weighted" : ""));

  // Dense side: materialized Algorithm 1 + 2.
  ComputationStructure q = ComputationStructure::from_loop(nest);
  TimeFunction tf{pi_or_empty};
  if (pi_or_empty.empty()) {
    std::optional<TimeFunction> searched = search_time_function(q);
    ASSERT_TRUE(searched.has_value());
    tf = *searched;
  }
  ProjectedStructure ps(q, tf);
  Grouping grouping = Grouping::compute(ps);
  Partition partition = Partition::build(q, grouping);
  PartitionStats stats = compute_partition_stats(q, partition);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, partition, grouping);
  HypercubeMapOptions mopts;
  mopts.weighted = weighted;
  HypercubeMappingResult dense_map = map_to_hypercube(tig, cube_dim, mopts);

  // Symbolic side: the closed-form lattice.
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  std::string why;
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf, {}, &why);
  ASSERT_TRUE(gl.has_value()) << "lattice gate unexpectedly refused: " << why;

  // Frame quantities.
  EXPECT_EQ(gl->line_count(), ps.point_count());
  EXPECT_EQ(gl->group_count(), grouping.group_count());
  EXPECT_EQ(gl->group_size_r(), grouping.group_size_r());
  EXPECT_EQ(gl->beta(), grouping.beta());
  if (gl->layout() == LatticeLayout::Chain)
    EXPECT_EQ(gl->sum_line_populations(gl->c_min(), gl->c_max()), space.size());

  // Dense group id of each lattice key.  Non-degenerate groups carry their
  // lattice coordinates plus (chain layout) the region-growing component;
  // degenerate group ids follow the lex point order, which is exactly the
  // lattice's sorted index.
  const std::uint64_t ngroups = gl->group_count();
  auto dense_key = [&](std::size_t i) -> GroupKey {
    const IntVec& lat = grouping.groups()[i].lattice;
    if (gl->layout() == LatticeLayout::Plane) return {lat.at(0), lat.at(1), 0};
    return {lat.at(0), 0, static_cast<std::int64_t>(grouping.groups()[i].component)};
  };
  std::vector<std::size_t> gid(ngroups);
  if (gl->degenerate()) {
    std::iota(gid.begin(), gid.end(), std::size_t{0});
  } else {
    std::map<GroupKey, std::size_t> by_key;
    for (std::size_t i = 0; i < grouping.group_count(); ++i)
      ASSERT_TRUE(by_key.emplace(dense_key(i), i).second);
    for (std::uint64_t k = 0; k < ngroups; ++k) {
      auto it = by_key.find(gl->group_at_sorted_index(k));
      ASSERT_NE(it, by_key.end()) << "lattice key with no dense group";
      gid[k] = it->second;
    }
  }

  // Per-group populations (== dense block sizes, matched by key).
  for (std::uint64_t k = 0; k < ngroups; ++k) {
    GroupKey g = gl->group_at_sorted_index(k);
    EXPECT_EQ(gl->sorted_index_of_group(g), k);
    ASSERT_EQ(partition.blocks()[gid[k]].group_id, gid[k]);
    EXPECT_EQ(gl->group_population(g),
              static_cast<std::int64_t>(partition.blocks()[gid[k]].iterations.size()))
        << "group (" << g.a << "," << g.b << "," << g.comp << ")";
    EXPECT_EQ(gl->group_lattice_coord(g), grouping.groups()[gid[k]].lattice);
  }

  // One sweep: block stats, arc totals, verdicts.
  LatticeSweepResult sw = gl->sweep(true);
  EXPECT_EQ(sw.stats.group_count, ngroups);
  EXPECT_EQ(sw.stats.total_iterations, space.size());
  EXPECT_EQ(sw.stats.min_block, static_cast<std::int64_t>(partition.min_block_size()));
  EXPECT_EQ(sw.stats.max_block, static_cast<std::int64_t>(partition.max_block_size()));
  EXPECT_EQ(sw.partition.total_arcs, stats.total_arcs);
  EXPECT_EQ(sw.partition.interblock_arcs, stats.interblock_arcs);
  EXPECT_EQ(sw.partition.intrablock_arcs, stats.intrablock_arcs);
  EXPECT_TRUE(sw.exact_cover);

  // TIG arc weights aggregated per lattice offset.  The dense TIG's edge
  // (u, v, weight) contributes to the canonical (sign-normalized) key
  // difference; the sweep's (dep, offset) weights aggregate identically.
  std::vector<GroupKey> key_of_gid(ngroups);
  for (std::uint64_t k = 0; k < ngroups; ++k)
    key_of_gid[gid[k]] = gl->group_at_sorted_index(k);
  auto canon = [](GroupOffset o) {
    if (o < GroupOffset{}) return GroupOffset{-o.da, -o.db, -o.dcomp};
    return o;
  };
  std::map<GroupOffset, std::int64_t> dense_off, sym_off;
  for (const auto& [edge, weight] : tig.edges()) {
    const GroupKey& ku = key_of_gid[edge.first];
    const GroupKey& kv = key_of_gid[edge.second];
    dense_off[canon({kv.a - ku.a, kv.b - ku.b, kv.comp - ku.comp})] += weight;
  }
  std::int64_t sym_intra = 0;
  for (const auto& [key, weight] : sw.offset_weights) {
    if (key.second == GroupOffset{})
      sym_intra += weight;
    else
      sym_off[canon(key.second)] += weight;
  }
  EXPECT_EQ(sym_off, dense_off);
  EXPECT_EQ(sym_intra, static_cast<std::int64_t>(stats.intrablock_arcs));

  // Algorithm 2: identical processor per group.  Weighted plane mapping is
  // not closed-form; the builder must refuse loudly, not silently diverge.
  if (weighted && gl->layout() == LatticeLayout::Plane) {
    EXPECT_THROW((void)map_to_hypercube(*gl, cube_dim, mopts), std::invalid_argument);
  } else {
    LatticeHypercubeMapping lm = map_to_hypercube(*gl, cube_dim, mopts);
    EXPECT_EQ(lm.processor_count, dense_map.mapping.processor_count);
    EXPECT_EQ(lm.cube_dim, cube_dim);
    for (std::uint64_t k = 0; k < ngroups; ++k) {
      EXPECT_EQ(lm.proc_of_group(*gl, gl->group_at_sorted_index(k)),
                dense_map.mapping.block_to_proc[gid[k]])
          << "sorted index " << k;
      if (gl->layout() == LatticeLayout::Chain)
        EXPECT_EQ(lm.proc_of_sorted_index(k), dense_map.mapping.block_to_proc[gid[k]]);
    }

    // The dense and lattice simulations against the brute-force oracle,
    // under all three accountings (hop charging follows `weighted`, so
    // both settings are covered).
    Hypercube cube(cube_dim);
    const MachineParams machine{1.0, 50.0, 5.0};
    for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                               CommAccounting::LinkContention}) {
      SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)));
      SimOptions opts;
      opts.accounting = acc;
      opts.charge_hops = weighted;
      const SimResult want =
          oracle::simulate(q, tf, partition, dense_map.mapping, cube, machine, opts);
      oracle::expect_matches(
          simulate_execution(q, tf, partition, dense_map.mapping, cube, machine, opts), want);
      oracle::expect_matches(simulate_execution(*gl, lm, cube, machine, opts), want);
    }
  }

  // Boxes tile [a_min, a_max].
  std::vector<GroupLattice::GroupBox> boxes = gl->enumerate_boxes();
  ASSERT_FALSE(boxes.empty());
  std::int64_t lo = boxes.front().a_lo, hi = boxes.front().a_hi;
  for (const GroupLattice::GroupBox& b : boxes) {
    EXPECT_LE(b.a_lo, b.a_hi);
    EXPECT_LE(b.c_lo, b.c_hi);
    lo = std::min(lo, b.a_lo);
    hi = std::max(hi, b.a_hi);
    if (gl->layout() == LatticeLayout::Chain && gl->component_count() == 1) {
      std::int64_t a0 = gl->group_of_line(b.c_lo).a;
      EXPECT_TRUE(a0 == b.a_lo || a0 == b.a_hi);
    }
  }
  EXPECT_EQ(lo, gl->a_min());
  EXPECT_EQ(hi, gl->a_max());
}

TEST(GroupLattice, PaperWorkloadsMatchDense) {
  expect_lattice_matches_dense(workloads::example_l1(), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::sor2d(10, 7), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::sor2d(9, 9), {1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::triangular_matvec(9), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::matrix_vector(8), {}, 3, false);
  expect_lattice_matches_dense(workloads::convolution1d(9, 4), {}, 2, false);
  expect_lattice_matches_dense(workloads::dft_horner(7), {}, 2, true);
}

TEST(GroupLattice, ThreeDPlaneWorkloadsMatchDense) {
  // n = 3, β = 2: the plane layout's (a, b) lattice, fragment CSR mapping
  // and dual-functional coordinates against the dense pipeline.
  expect_lattice_matches_dense(workloads::matrix_multiplication(4), {1, 1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::matrix_multiplication_rewritten(4), {1, 1, 1}, 3,
                               false);
  expect_lattice_matches_dense(workloads::wavefront3d(5), {1, 1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::transitive_closure(4), {1, 1, 1}, 2, false);
  // Triangular-prism domain (affine bounds): per-aux-chain contiguity holds.
  expect_lattice_matches_dense(workloads::lu_decomposition(8), {1, 1, 1}, 3, false);
}

TEST(GroupLattice, StridedChainsMatchDense) {
  // |γ_l| > 1: the lines split into residue components, each a sub-chain
  // the dense region growing covers from its own lexicographic seed.
  expect_lattice_matches_dense(workloads::strided_recurrence(9, 2), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::strided_recurrence(9, 3), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::strided_recurrence(12, 4), {1, 1}, 2, true);
}

TEST(GroupLattice, DisjunctiveBoundsMatchDense) {
  // min/max bounds split slabs on the comparison hyperplane; the per-slab
  // closed forms must still reproduce the dense grouping exactly.
  expect_lattice_matches_dense(workloads::pyramid_stencil(12), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::pyramid_stencil(15), {1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::floyd_warshall_band(14, 4), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::floyd_warshall_band(11, 2), {1, 1}, 2, true);
}

TEST(GroupLattice, RandomizedNests) {
  // Deterministic seed: the suite must be reproducible.
  std::mt19937 rng(0xC0FFEE);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 72; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    unsigned cube_dim = static_cast<unsigned>(pick(0, 3));
    bool weighted = pick(0, 1) == 1;
    switch (trial % 9) {
      case 0:
        expect_lattice_matches_dense(workloads::sor2d(pick(2, 14), pick(2, 14)), {1, 1},
                                     cube_dim, weighted);
        break;
      case 1:
        expect_lattice_matches_dense(workloads::example_l1(pick(2, 9)), {1, 1}, cube_dim,
                                     weighted);
        break;
      case 2:
        expect_lattice_matches_dense(workloads::triangular_matvec(pick(3, 14)), {1, 1},
                                     cube_dim, weighted);
        break;
      case 3:
        expect_lattice_matches_dense(workloads::matrix_vector(pick(3, 14)), {}, cube_dim,
                                     weighted);
        break;
      case 4:
        expect_lattice_matches_dense(workloads::strided_recurrence(pick(6, 14), pick(2, 4)),
                                     {1, 1}, cube_dim, weighted);
        break;
      case 5:
        expect_lattice_matches_dense(workloads::wavefront3d(pick(2, 6)), {1, 1, 1}, cube_dim,
                                     weighted);
        break;
      case 6:
        expect_lattice_matches_dense(workloads::pyramid_stencil(pick(6, 16)), {1, 1},
                                     cube_dim, weighted);
        break;
      case 7:
        expect_lattice_matches_dense(
            workloads::floyd_warshall_band(pick(8, 16), pick(2, 5)), {1, 1}, cube_dim,
            weighted);
        break;
      default: {
        std::int64_t n = pick(5, 12);
        expect_lattice_matches_dense(workloads::convolution1d(n, pick(2, n - 2)), {}, cube_dim,
                                     weighted);
        break;
      }
    }
  }
}

TEST(GroupLattice, GroupingVectorOverrideMatchesDense) {
  // Both of sor2d's dependences attain the maximal replication factor, so
  // either is a legal override; the lattice must follow the same choice.
  for (std::size_t k : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("override dep " + std::to_string(k));
    LoopNest nest = workloads::sor2d(8, 6);
    ComputationStructure q = ComputationStructure::from_loop(nest);
    TimeFunction tf{IntVec{1, 1}};
    ProjectedStructure ps(q, tf);
    GroupingOptions opts;
    opts.grouping_vector = k;
    Grouping grouping = Grouping::compute(ps, opts);
    ASSERT_EQ(grouping.grouping_vector_index(), k);

    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, tf, opts);
    ASSERT_TRUE(gl.has_value());
    EXPECT_EQ(gl->grouping_vector_index(), k);
    EXPECT_EQ(gl->group_count(), grouping.group_count());
    Partition partition = Partition::build(q, grouping);
    EXPECT_EQ(gl->sweep(false).stats.max_block,
              static_cast<std::int64_t>(partition.max_block_size()));
  }
}

TEST(GroupLattice, GateRefusesOutOfClassNests) {
  TimeFunction tf2{IntVec{1, 1}};

  // 3-D strided nest: the projected dependences generate a proper
  // sublattice, so units leave the seed coset — plane-multi-coset fallback.
  {
    LoopNest nest = workloads::strided_recurrence3d(8, 2);
    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::string why;
    EXPECT_FALSE(
        GroupLattice::build(space, TimeFunction{IntVec{1, 1, 1}}, {}, &why).has_value());
    EXPECT_EQ(why, "plane-multi-coset");
  }
  // Non-default seed policy: the closed form reproduces Lexicographic only.
  {
    DependenceInfo dep = analyze_dependences(workloads::sor2d(6, 6));
    IterSpace space(workloads::sor2d(6, 6), dep.distance_vectors());
    GroupingOptions opts;
    opts.seed_policy = SeedPolicy::ExplicitBases;
    opts.explicit_bases = {IntVec{0, 0}};
    std::string why;
    EXPECT_FALSE(GroupLattice::build(space, tf2, opts, &why).has_value());
    EXPECT_EQ(why, "seed-policy");
  }
  // 4-D nests stay out of class.
  {
    LoopNest nest = workloads::convolution2d(5, 3);
    DependenceInfo dep = analyze_dependences(nest);
    IterSpace space(nest, dep.distance_vectors());
    std::string why;
    EXPECT_FALSE(
        GroupLattice::build(space, TimeFunction{IntVec{1, 1, 1, 1}}, {}, &why).has_value());
    EXPECT_EQ(why, "dimension-unsupported");
  }
}

TEST(GroupLattice, SymbolicPipelineUsesLatticeAndVerifyAgrees) {
  // Symbolic mode on an in-class nest must take the pure lattice path (no
  // groups materialized); verify mode re-runs every stage densely and
  // throws on any disagreement — including the lattice cross-checks.
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  cfg.space_mode = SpaceMode::Symbolic;
  PipelineResult sym = run_pipeline(workloads::sor2d(20, 20), cfg);
  ASSERT_NE(sym.lattice, nullptr);
  EXPECT_TRUE(sym.lattice_mapping.has_value());
  EXPECT_TRUE(sym.lattice_stats.has_value());
  EXPECT_TRUE(sym.block_sizes.empty());
  EXPECT_EQ(sym.projected, nullptr);
  EXPECT_TRUE(sym.exact_cover);
  EXPECT_TRUE(sym.theorem1);
  EXPECT_TRUE(sym.theorem2.holds);

  cfg.space_mode = SpaceMode::Verify;
  PipelineResult ver = run_pipeline(workloads::sor2d(20, 20), cfg);
  EXPECT_EQ(ver.sim.time, sym.sim.time);
  EXPECT_EQ(ver.sim.messages, sym.sim.messages);
  EXPECT_EQ(ver.stats.interblock_arcs, sym.stats.interblock_arcs);
}

TEST(GroupLattice, Fig6MatmulVerifyRun) {
  // Paper Fig. 6: matrix multiplication under Pi = (1,1,1).  A 3-D nest —
  // now inside the plane-layout lattice class, so the symbolic path must be
  // fully closed-form; verify mode asserts dense/symbolic equality
  // throughout (including the lattice cross-checks).
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1, 1};
  cfg.space_mode = SpaceMode::Verify;
  PipelineResult r = run_pipeline(workloads::matrix_multiplication(), cfg);
  EXPECT_EQ(r.grouping.group_size_r(), 3);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem2.holds);

  cfg.space_mode = SpaceMode::Symbolic;
  PipelineResult sym = run_pipeline(workloads::matrix_multiplication(), cfg);
  ASSERT_NE(sym.lattice, nullptr);
  EXPECT_TRUE(sym.block_sizes.empty());  // pure lattice path: nothing materialized
  EXPECT_EQ(sym.sim.time, r.sim.time);
}

TEST(GroupLattice, LineFeedMatchesPopulationQueries) {
  DependenceInfo dep = analyze_dependences(workloads::triangular_matvec(11));
  IterSpace space(workloads::triangular_matvec(11), dep.distance_vectors());
  TimeFunction tf{IntVec{1, 1}};
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
  ASSERT_TRUE(gl.has_value());
  std::uint64_t total = 0;
  std::map<GroupKey, std::int64_t> pop_by_group;
  gl->for_each_line([&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
    EXPECT_GT(pop, 0);
    (void)first_step;
    pop_by_group[g] += pop;
    total += static_cast<std::uint64_t>(pop);
  });
  EXPECT_EQ(total, space.size());
  EXPECT_EQ(pop_by_group.size(), gl->group_count());
  for (const auto& [g, pop] : pop_by_group) EXPECT_EQ(pop, gl->group_population(g));

  std::int64_t bundle_arcs = 0;
  gl->for_each_arc_bundle([&](const GroupKey& src, const GroupKey& dst, std::size_t k,
                              std::int64_t count, std::int64_t first_step) {
    EXPECT_GE(gl->group_population(src), count);
    EXPECT_LE(gl->sorted_index_of_group(dst), gl->group_count());
    EXPECT_LT(k, gl->original_deps().size());
    EXPECT_GT(count, 0);
    (void)first_step;
    bundle_arcs += count;
  });
  EXPECT_EQ(static_cast<std::size_t>(bundle_arcs), gl->sweep(false).partition.total_arcs);
}

TEST(GroupLattice, PlaneLineFeedMatchesPopulationQueries) {
  // Same invariants on a plane layout: the feed walks aux-chain-major and
  // its per-group accumulation must equal the closed-form populations.
  LoopNest nest = workloads::wavefront3d(5);
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  TimeFunction tf{IntVec{1, 1, 1}};
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
  ASSERT_TRUE(gl.has_value());
  ASSERT_EQ(gl->layout(), LatticeLayout::Plane);
  std::uint64_t total = 0;
  std::map<GroupKey, std::int64_t> pop_by_group;
  gl->for_each_line([&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
    EXPECT_GT(pop, 0);
    (void)first_step;
    pop_by_group[g] += pop;
    total += static_cast<std::uint64_t>(pop);
  });
  EXPECT_EQ(total, space.size());
  EXPECT_EQ(pop_by_group.size(), gl->group_count());
  for (const auto& [g, pop] : pop_by_group) EXPECT_EQ(pop, gl->group_population(g));
}

TEST(GroupLattice, SymbolicFaultInjectionMatchesDense) {
  // Degraded execution under node/link faults: the symbolic simulators
  // (line-based and lattice) must reproduce the dense fault machinery —
  // verify mode runs both and throws on any disagreement, including the
  // degraded observability fields.
  struct Case {
    LoopNest nest;
    IntVec pi;
  };
  const std::vector<Case> cases = {
      {workloads::sor2d(12, 9), {1, 1}},                  // chain layout
      {workloads::strided_recurrence(10, 2), {1, 1}},     // strided residue chains
      {workloads::pyramid_stencil(14), {1, 1}},           // disjunctive bounds
      {workloads::wavefront3d(5), {1, 1, 1}},             // plane layout
      {workloads::strided_recurrence3d(6, 2), {1, 1, 1}}  // line-based fallback
  };
  const std::vector<std::string> specs = {"link:0-1@3", "node:2@5",
                                          "link:0-2,node:1@4,link:4-5@6"};
  for (const Case& c : cases) {
    for (const std::string& spec : specs) {
      for (CommAccounting acc : {CommAccounting::PaperMaxChannel,
                                 CommAccounting::PerStepBarrier,
                                 CommAccounting::LinkContention}) {
        SCOPED_TRACE(c.nest.name() + " faults=" + spec +
                     " acc=" + std::to_string(static_cast<int>(acc)));
        PipelineConfig cfg;
        cfg.time_function = c.pi;
        cfg.sim.faults = fault::FaultPlan::parse(spec);
        cfg.sim.accounting = acc;
        cfg.space_mode = SpaceMode::Dense;
        PipelineResult dense = run_pipeline(c.nest, cfg);
        cfg.space_mode = SpaceMode::Verify;
        PipelineResult ver = run_pipeline(c.nest, cfg);  // throws on divergence
        EXPECT_EQ(ver.sim.time, dense.sim.time);
        EXPECT_EQ(ver.sim.messages, dense.sim.messages);
        EXPECT_EQ(ver.sim.failed_nodes, dense.sim.failed_nodes);
        EXPECT_EQ(ver.sim.failed_links, dense.sim.failed_links);
        EXPECT_EQ(ver.sim.rerouted_messages, dense.sim.rerouted_messages);
        EXPECT_EQ(ver.sim.migrated_blocks, dense.sim.migrated_blocks);
        EXPECT_EQ(ver.sim.migration_cost, dense.sim.migration_cost);
      }
    }
  }
}

TEST(GroupLattice, PerStepFeedsMatchOracleOnLongRuns) {
  // Few long lines with σ > 1 (floyd_warshall_band) and many short ones
  // (pyramid_stencil): the dense, line and lattice feeds against the
  // brute-force oracle under both per-step accountings, with and without
  // hop charging, fault-free and under link-only fault plans whose break
  // steps fall mid-schedule, inside the runs.
  const unsigned dim = 3;
  Hypercube cube(dim);
  const MachineParams machine{1.0, 50.0, 5.0};
  bool saw_stride = false;
  for (const LoopNest& nest :
       {workloads::floyd_warshall_band(40, 6), workloads::pyramid_stencil(32)}) {
    ComputationStructure q = ComputationStructure::from_loop(nest);
    std::optional<TimeFunction> tf = search_time_function(q);
    ASSERT_TRUE(tf.has_value()) << nest.name();
    ProjectedStructure ps(q, *tf);
    Grouping grouping = Grouping::compute(ps);
    Partition partition = Partition::build(q, grouping);
    TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, partition, grouping);
    Mapping map = map_to_hypercube(tig, dim).mapping;

    IterSpace space(nest, analyze_dependences(nest).distance_vectors());
    ProjectedStructure sym_ps(space, *tf);
    Grouping sym_grouping = Grouping::compute(sym_ps);
    std::optional<GroupLattice> gl = GroupLattice::build(space, *tf);
    ASSERT_TRUE(gl.has_value()) << nest.name();
    LatticeHypercubeMapping lm = map_to_hypercube(*gl, dim);
    saw_stride = saw_stride || gl->step_stride() > 1;

    const std::int64_t lo = space.min_step(tf->pi), hi = space.max_step(tf->pi);
    const std::int64_t mid = lo + (hi - lo) / 2;
    const std::string at = std::to_string(mid), later = std::to_string(mid + (hi - mid) / 2 + 1);
    for (const std::string& spec :
         {std::string{}, "link:0-1@" + at, "link:1-3@" + at + ",link:2-6@" + later}) {
      for (CommAccounting acc : {CommAccounting::PerStepBarrier, CommAccounting::LinkContention}) {
        for (bool hops : {false, true}) {
          SCOPED_TRACE(nest.name() + " faults=" + spec + " acc=" +
                       std::to_string(static_cast<int>(acc)) + (hops ? " hops" : ""));
          SimOptions opts;
          opts.accounting = acc;
          opts.charge_hops = hops;
          if (!spec.empty()) opts.faults = fault::FaultPlan::parse(spec);
          const SimResult want = oracle::simulate(q, *tf, partition, map, cube, machine, opts);
          oracle::expect_matches(simulate_execution(q, *tf, partition, map, cube, machine, opts),
                                 want);
          oracle::expect_matches(
              simulate_execution(space, sym_grouping, map, cube, machine, opts), want);
          oracle::expect_matches(simulate_execution(*gl, lm, cube, machine, opts), want);
        }
      }
    }
  }
  EXPECT_TRUE(saw_stride) << "no nest exercised a step stride above 1";
}

}  // namespace
}  // namespace hypart
