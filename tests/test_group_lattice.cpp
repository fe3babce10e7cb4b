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
#include "frontend/parser.hpp"
#include "graph/comp_structure.hpp"
#include "loop/iter_space.hpp"
#include "mapping/hypercube_map.hpp"
#include "mapping/tig.hpp"
#include "partition/blocks.hpp"
#include "partition/projection.hpp"
#include "schedule/hyperplane.hpp"
#include "workloads/workloads.hpp"
#include "lattice_walk_oracle.hpp"
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

  // Dense group id of each lattice key.  Non-degenerate groups carry their
  // lattice coordinates plus the region-growing component (the coset);
  // degenerate group ids follow the lex point order, which is exactly the
  // lattice's sorted index.
  const std::uint64_t ngroups = gl->group_count();
  auto dense_key = [&](std::size_t i) -> GroupKey {
    const IntVec& lat = grouping.groups()[i].lattice;
    return {lat.at(0), lat.size() > 1 ? lat[1] : 0,
            static_cast<std::int64_t>(grouping.groups()[i].component)};
  };
  if (!gl->degenerate()) {
    EXPECT_EQ(static_cast<std::size_t>(gl->component_count()),
              grouping.groups().back().component + 1);
  }
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

  // Algorithm 2: identical processor per group, count or weighted splits.
  LatticeHypercubeMapping lm = map_to_hypercube(*gl, cube_dim, mopts);
  EXPECT_EQ(lm.processor_count, dense_map.mapping.processor_count);
  EXPECT_EQ(lm.cube_dim, cube_dim);
  EXPECT_EQ(lm.directions_used, dense_map.directions_used);
  for (std::uint64_t k = 0; k < ngroups; ++k)
    EXPECT_EQ(lm.proc_of_group(*gl, gl->group_at_sorted_index(k)),
              dense_map.mapping.block_to_proc[gid[k]])
        << "sorted index " << k;

  // The dense and lattice simulations against the brute-force oracle,
  // under all three accountings (hop charging follows `weighted`, so both
  // settings are covered).
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

  // The run table: ascending (b, comp), contiguous slot runs whose group
  // ranges tile [a_min, a_max] and sum to the group and line counts.
  const std::vector<GroupLattice::Run>& runs = gl->runs();
  ASSERT_FALSE(runs.empty());
  std::int64_t lo = runs.front().a_lo, hi = runs.front().a_hi;
  std::uint64_t groups = 0, lines = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const GroupLattice::Run& run = runs[i];
    EXPECT_LE(run.t_lo, run.t_hi);
    EXPECT_EQ(run.a_lo, floor_div(run.t_lo, gl->group_size_r()));
    EXPECT_EQ(run.a_hi, floor_div(run.t_hi, gl->group_size_r()));
    if (i > 0) {
      EXPECT_LT(std::tie(runs[i - 1].b, runs[i - 1].comp), std::tie(run.b, run.comp));
    }
    lo = std::min(lo, run.a_lo);
    hi = std::max(hi, run.a_hi);
    groups += static_cast<std::uint64_t>(run.a_hi - run.a_lo + 1);
    lines += static_cast<std::uint64_t>(run.t_hi - run.t_lo + 1);
  }
  EXPECT_EQ(lo, gl->a_min());
  EXPECT_EQ(hi, gl->a_max());
  EXPECT_EQ(groups, ngroups);
  EXPECT_EQ(lines, gl->line_count());
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
  // n = 3, β = 2: the (a, b) lattice, the fragment CSR mapping
  // and dual-functional coordinates against the dense pipeline.
  expect_lattice_matches_dense(workloads::matrix_multiplication(4), {1, 1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::matrix_multiplication_rewritten(4), {1, 1, 1}, 3,
                               false);
  expect_lattice_matches_dense(workloads::wavefront3d(5), {1, 1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::transitive_closure(4), {1, 1, 1}, 2, false);
  // Triangular-prism domain (affine bounds): per-aux-chain contiguity holds.
  expect_lattice_matches_dense(workloads::lu_decomposition(8), {1, 1, 1}, 3, false);
  // Weighted splits read per-run population prefix sums.
  expect_lattice_matches_dense(workloads::matrix_multiplication(4), {1, 1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::lu_decomposition(8), {1, 1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::wavefront3d(6), {1, 1, 1}, 2, true);
}

TEST(GroupLattice, MultiCosetPlanesMatchDense) {
  // Stride s: the projected dependences span an index-s² sublattice of the
  // projected points, so the lines split into s² cosets, each grown from
  // its own lexicographic seed.
  expect_lattice_matches_dense(workloads::strided_recurrence3d(7, 2), {1, 1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::strided_recurrence3d(8, 2), {1, 1, 1}, 3, true);
  expect_lattice_matches_dense(workloads::strided_recurrence3d(8, 3), {1, 1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::strided_recurrence3d(9, 3), {1, 1, 1}, 2, true);
  // Unit dependences under Π = (1, 1, c): proj(e_3) = -(proj(e_1) +
  // proj(e_2))/c, so c cosets, and targets of d_3 change coset.
  for (bool weighted : {false, true}) {
    expect_lattice_matches_dense(workloads::wavefront3d(5), {1, 1, 2}, 3, weighted);
    expect_lattice_matches_dense(workloads::wavefront3d(5), {1, 1, 3}, 2, weighted);
  }
  struct Case {
    LoopNest nest;
    IntVec pi;
    std::int64_t cosets;
  };
  for (const Case& c : {Case{workloads::strided_recurrence3d(7, 2), {1, 1, 1}, 4},
                        Case{workloads::strided_recurrence3d(8, 3), {1, 1, 1}, 9},
                        Case{workloads::wavefront3d(5), {1, 1, 2}, 2},
                        Case{workloads::wavefront3d(4), {1, 1, 3}, 3}}) {
    IterSpace space(c.nest, analyze_dependences(c.nest).distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, TimeFunction{c.pi});
    ASSERT_TRUE(gl.has_value()) << c.nest.name();
    EXPECT_EQ(gl->component_count(), c.cosets) << c.nest.name();
  }
}

TEST(GroupLattice, StridedChainsMatchDense) {
  // |γ_l| > 1: the lines split into residue components, each a sub-chain
  // the dense region growing covers from its own lexicographic seed.
  expect_lattice_matches_dense(workloads::strided_recurrence(9, 2), {1, 1}, 2, false);
  expect_lattice_matches_dense(workloads::strided_recurrence(9, 3), {1, 1}, 3, false);
  expect_lattice_matches_dense(workloads::strided_recurrence(12, 4), {1, 1}, 2, true);
  // γ = (3, -1): the second dependence crosses residue components.
  const LoopNest crossing = parse_loop_nest(
      "loop crossing {\n  for i = 0 to 9\n  for j = 0 to 7\n"
      "  A[i, j] = A[i-3, j] + A[i, j-1];\n}\n");
  expect_lattice_matches_dense(crossing, {1, 1}, 2, false);
  expect_lattice_matches_dense(crossing, {1, 1}, 3, true);
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
  for (int trial = 0; trial < 88; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    unsigned cube_dim = static_cast<unsigned>(pick(0, 3));
    bool weighted = pick(0, 1) == 1;
    switch (trial % 11) {
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
      case 8:
        expect_lattice_matches_dense(workloads::strided_recurrence3d(pick(4, 9), pick(2, 3)),
                                     {1, 1, 1}, cube_dim, weighted);
        break;
      case 9:
        expect_lattice_matches_dense(workloads::wavefront3d(pick(2, 6)),
                                     pick(0, 1) == 1 ? IntVec{1, 1, 2} : IntVec{1, 1, 3},
                                     cube_dim, weighted);
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

TEST(GroupLattice, RejectedOrParallelGroupingOverrideFallsBack) {
  // The lattice takes Steps 1-2 from choose_grouping, as the dense grouping
  // does.  An override it rejects (k = 7) or one projecting to zero (k = 0:
  // d ∥ Π, which makes the dense grouping degenerate) falls back with one
  // slug, so the line-based path raises its error or builds its grouping.
  const TimeFunction tf{IntVec{1, 0}};
  const IterSpace space({{0, 5}, {0, 4}}, {{1, 0}, {1, 1}});
  for (std::size_t k : {std::size_t{0}, std::size_t{7}}) {
    SCOPED_TRACE("override dep " + std::to_string(k));
    GroupingOptions opts;
    opts.grouping_vector = k;
    std::string why;
    EXPECT_FALSE(GroupLattice::build(space, tf, opts, &why).has_value());
    EXPECT_EQ(why, "invalid-grouping-override");
  }
  const ProjectedStructure ps(space, tf);
  GroupingOptions parallel;
  parallel.grouping_vector = 0;
  EXPECT_FALSE(Grouping::compute(ps, parallel).grouping_vector_index().has_value());
  GroupingOptions out_of_range;
  out_of_range.grouping_vector = 7;
  EXPECT_THROW(Grouping::compute(ps, out_of_range), std::invalid_argument);
  GroupingOptions valid;
  valid.grouping_vector = 1;
  EXPECT_TRUE(GroupLattice::build(space, tf, valid).has_value());
}

TEST(GroupLattice, GateRefusesOutOfClassNests) {
  TimeFunction tf2{IntVec{1, 1}};

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
  ASSERT_EQ(sym.plan->groups_materialized, 0u);  // the lattice plan ran
  EXPECT_EQ(sym.plan->processors, 8u);
  EXPECT_TRUE(sym.lattice_stats.has_value());
  EXPECT_TRUE(sym.block_sizes.empty());
  EXPECT_TRUE(sym.exact_cover);
  EXPECT_TRUE(sym.theorem1);
  EXPECT_TRUE(sym.theorem2.holds);

  cfg.space_mode = SpaceMode::Verify;
  PipelineResult ver = run_pipeline(workloads::sor2d(20, 20), cfg);
  EXPECT_EQ(ver.sim.time, sym.sim.time);
  EXPECT_EQ(ver.sim.messages, sym.sim.messages);
  EXPECT_EQ(ver.plan->stats.interblock_arcs, sym.plan->stats.interblock_arcs);
}

TEST(GroupLattice, Fig6MatmulVerifyRun) {
  // Paper Fig. 6: matrix multiplication under Pi = (1,1,1).  A 3-D nest —
  // inside the lattice class (n = 3, β = 2), so the symbolic path must be
  // fully closed-form; verify mode asserts dense/symbolic equality
  // throughout (including the lattice cross-checks).
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1, 1};
  cfg.space_mode = SpaceMode::Verify;
  PipelineResult r = run_pipeline(workloads::matrix_multiplication(), cfg);
  EXPECT_EQ(r.plan->group_size_r, 3);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem2.holds);

  cfg.space_mode = SpaceMode::Symbolic;
  PipelineResult sym = run_pipeline(workloads::matrix_multiplication(), cfg);
  ASSERT_EQ(sym.plan->groups_materialized, 0u);  // the lattice plan ran
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
  // Same invariants for n = 3: the feed walks the runs in (b, comp) order and
  // its per-group accumulation must equal the closed-form populations.
  LoopNest nest = workloads::wavefront3d(5);
  DependenceInfo dep = analyze_dependences(nest);
  IterSpace space(nest, dep.distance_vectors());
  TimeFunction tf{IntVec{1, 1, 1}};
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
  ASSERT_TRUE(gl.has_value());
  ASSERT_TRUE(gl->auxiliary_vector_index().has_value());
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
      {workloads::sor2d(12, 9), {1, 1}},                  // n = 2, one coset
      {workloads::strided_recurrence(10, 2), {1, 1}},     // strided residue chains
      {workloads::pyramid_stencil(14), {1, 1}},           // disjunctive bounds
      {workloads::wavefront3d(5), {1, 1, 1}},             // n = 3, one coset
      {workloads::strided_recurrence3d(6, 2), {1, 1, 1}}  // multi-coset plane
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

/// The compiled walkers against the per-line line_range walk: identical
/// line and bundle sequences (order included) and an identical sweep.
void expect_walk_matches_oracle(const IterSpace& space, const TimeFunction& tf,
                                const std::string& label) {
  SCOPED_TRACE(label);
  std::string why;
  std::optional<GroupLattice> gl = GroupLattice::build(space, tf, {}, &why);
  ASSERT_TRUE(gl.has_value()) << "lattice gate refused: " << why;

  using Line = std::tuple<GroupKey, std::int64_t, std::int64_t>;
  std::vector<Line> want_lines, got_lines;
  oracle::for_each_line(*gl, [&](const GroupKey& g, std::int64_t pop, std::int64_t step) {
    want_lines.emplace_back(g, pop, step);
  });
  gl->for_each_line([&](const GroupKey& g, std::int64_t pop, std::int64_t step) {
    got_lines.emplace_back(g, pop, step);
  });
  EXPECT_FALSE(want_lines.empty());
  EXPECT_EQ(got_lines, want_lines);

  using Bundle = std::tuple<GroupKey, GroupKey, std::size_t, std::int64_t, std::int64_t>;
  std::vector<Bundle> want_bundles, got_bundles;
  oracle::for_each_arc_bundle(*gl, [&](const GroupKey& src, const GroupKey& dst, std::size_t k,
                                       std::int64_t count, std::int64_t step) {
    want_bundles.emplace_back(src, dst, k, count, step);
  });
  gl->for_each_arc_bundle([&](const GroupKey& src, const GroupKey& dst, std::size_t k,
                              std::int64_t count, std::int64_t step) {
    got_bundles.emplace_back(src, dst, k, count, step);
  });
  EXPECT_EQ(got_bundles, want_bundles);

  for (bool validate : {true, false}) {
    SCOPED_TRACE(validate ? "sweep(true)" : "sweep(false)");
    const LatticeSweepResult want = oracle::sweep(*gl, validate);
    const LatticeSweepResult got = gl->sweep(validate);
    EXPECT_EQ(got.stats.group_count, want.stats.group_count);
    EXPECT_EQ(got.stats.total_iterations, want.stats.total_iterations);
    EXPECT_EQ(got.stats.min_block, want.stats.min_block);
    EXPECT_EQ(got.stats.max_block, want.stats.max_block);
    EXPECT_EQ(got.partition.total_arcs, want.partition.total_arcs);
    EXPECT_EQ(got.partition.interblock_arcs, want.partition.interblock_arcs);
    EXPECT_EQ(got.partition.intrablock_arcs, want.partition.intrablock_arcs);
    EXPECT_EQ(got.offset_weights, want.offset_weights);
    EXPECT_EQ(got.exact_cover, want.exact_cover);
    EXPECT_EQ(got.theorem1, want.theorem1);
    EXPECT_EQ(got.theorem2.m, want.theorem2.m);
    EXPECT_EQ(got.theorem2.beta, want.theorem2.beta);
    EXPECT_EQ(got.theorem2.bound, want.theorem2.bound);
    EXPECT_EQ(got.theorem2.max_out_degree, want.theorem2.max_out_degree);
    EXPECT_EQ(got.theorem2.holds, want.theorem2.holds);
    EXPECT_EQ(got.lemmas.lemma2_holds, want.lemmas.lemma2_holds);
    EXPECT_EQ(got.lemmas.lemma3_holds, want.lemmas.lemma3_holds);
    EXPECT_EQ(got.lemmas.worst_lemma2_fanout, want.lemmas.worst_lemma2_fanout);
    EXPECT_EQ(got.lemmas.worst_lemma3_fanout, want.lemmas.worst_lemma3_fanout);
  }

  // Group populations, via the walker over one group's slots, against the
  // oracle's per-line populations.
  std::map<GroupKey, std::int64_t> pop_by_group;
  for (const Line& line : want_lines) pop_by_group[std::get<0>(line)] += std::get<1>(line);
  std::size_t visited = 0;
  gl->for_each_group([&](const GroupKey& g, std::int64_t pop) {
    EXPECT_EQ(pop, pop_by_group[g]) << "group (" << g.a << "," << g.b << "," << g.comp << ")";
    ++visited;
  });
  EXPECT_EQ(visited, pop_by_group.size());
}

/// `pi` empty means "search".
void expect_walk_matches_oracle(const LoopNest& nest, const IntVec& pi) {
  IterSpace space(nest, analyze_dependences(nest).distance_vectors());
  TimeFunction tf{pi};
  if (pi.empty()) {
    std::optional<TimeFunction> searched = search_time_function(space);
    ASSERT_TRUE(searched.has_value()) << nest.name();
    tf = *searched;
  }
  expect_walk_matches_oracle(space, tf, nest.name() + " pi=" + tf.to_string());
}

TEST(GroupLattice, WalkMatchesLineRangeOracle) {
  // Chains: rectangular, triangular and disjunctive (max/min) bounds.
  expect_walk_matches_oracle(workloads::sor2d(13, 9), {1, 1});
  expect_walk_matches_oracle(workloads::sor2d(7, 7), {2, 1});
  expect_walk_matches_oracle(workloads::triangular_matvec(17), {1, 1});
  expect_walk_matches_oracle(workloads::pyramid_stencil(21), {1, 1});
  expect_walk_matches_oracle(workloads::pyramid_stencil(32), {});
  expect_walk_matches_oracle(workloads::floyd_warshall_band(19, 4), {1, 1});
  expect_walk_matches_oracle(workloads::floyd_warshall_band(40, 6), {});
  expect_walk_matches_oracle(workloads::example_l1(8), {1, 1});
  // Strided chains: |γ_l| > 1 splits the lines into residue components, so
  // targets land on other components' lines.
  expect_walk_matches_oracle(workloads::strided_recurrence(11, 2), {1, 1});
  expect_walk_matches_oracle(workloads::strided_recurrence(13, 3), {1, 1});
  expect_walk_matches_oracle(workloads::strided_recurrence(12, 4), {1, 1});
  // γ = (3, -1): the second dependence's targets change residue component,
  // and from the last components the component index wraps past g = 3.
  expect_walk_matches_oracle(IterSpace({{0, 9}, {0, 7}}, {IntVec{3, 0}, IntVec{0, 1}}),
                             TimeFunction{IntVec{1, 1}}, "strided, component-changing targets");
  // Planes.
  expect_walk_matches_oracle(workloads::wavefront3d(6), {1, 1, 1});
  expect_walk_matches_oracle(workloads::lu_decomposition(9), {1, 1, 1});
  expect_walk_matches_oracle(workloads::matrix_multiplication(5), {1, 1, 1});
  expect_walk_matches_oracle(workloads::transitive_closure(5), {1, 1, 1});
  // Multi-coset planes: targets land on other cosets' runs.
  expect_walk_matches_oracle(workloads::strided_recurrence3d(8, 2), {1, 1, 1});
  expect_walk_matches_oracle(workloads::strided_recurrence3d(9, 3), {1, 1, 1});
  expect_walk_matches_oracle(workloads::wavefront3d(6), {1, 1, 2});
  // Degenerate lattices: every dependence parallel to Π, each line its own
  // group, in either lexicographic orientation.
  expect_walk_matches_oracle(IterSpace({{0, 5}, {-2, 6}}, {IntVec{0, 1}, IntVec{0, 2}}),
                             TimeFunction{IntVec{0, 1}}, "degenerate (0,1)");
  expect_walk_matches_oracle(IterSpace({{0, 6}, {0, 4}}, {IntVec{1, 1}}),
                             TimeFunction{IntVec{1, 1}}, "degenerate (1,1)");
  expect_walk_matches_oracle(IterSpace({{-3, 4}, {0, 5}}, {IntVec{1, -1}}),
                             TimeFunction{IntVec{1, -1}}, "degenerate (1,-1)");
}

TEST(GroupLattice, HugeBoundsThrowArithmeticError) {
  // Closed forms whose values leave int64 must fail typed, not wrap: sor at
  // N = 4e18 (its Π search spans and line interval overflow), a 4 x 4e18
  // nest (its step span overflows) and a multi-coset plane, count or
  // weighted, past 2^63 iterations.
  PipelineConfig cfg;
  cfg.space_mode = SpaceMode::Symbolic;
  const std::string huge = "4000000000000000000";
  const std::string sor = "loop sor {\n  for i = 1 to " + huge + "\n  for j = 1 to " + huge +
                          "\n  A[i, j] = (A[i-1, j] + A[i, j-1]) * 0.5;\n}\n";
  EXPECT_THROW((void)run_pipeline(parse_loop_nest(sor), cfg), ArithmeticError);
  auto narrow = [](const std::string& n) {
    return parse_loop_nest("loop narrow {\n  for i = 1 to 4\n  for j = 1 to " + n +
                           "\n  A[i, j] = A[i, j-1] + 1;\n}\n");
  };
  EXPECT_THROW((void)run_pipeline(narrow(huge), cfg), ArithmeticError);
  // A representable neighbour still plans exactly: 4 x 2^60 runs its 2^60
  // steps along j.
  const std::int64_t n60 = std::int64_t{1} << 60;
  PipelineResult r = run_pipeline(narrow(std::to_string(n60)), cfg);
  ASSERT_EQ(r.plan->groups_materialized, 0u);  // the lattice plan ran
  EXPECT_EQ(r.sim.steps, n60);
  EXPECT_EQ(r.lattice_stats->total_iterations, std::uint64_t{4} << 60);

  // Four lines along k under Π = (0, 0, 1), one per coset of the stride-2
  // (i, j) lattice, each n + 1 points long.  Up to n = 2^61 - 2 the plan is
  // exact, count or weighted: the weighted splits read population prefix
  // sums up to 2^63 - 4.  Past that the iteration count leaves int64 and
  // must fail typed.
  auto cosets = [](const std::string& n) {
    return parse_loop_nest(
        "loop cosets {\n  for i = 0 to 1\n  for j = 0 to 1\n  for k = 0 to " + n +
        "\n  A[i, j, k] = A[i-2, j, k-1] + A[i, j-2, k-1] + A[i, j, k-1];\n}\n");
  };
  cfg.time_function = IntVec{0, 0, 1};
  cfg.cube_dim = 2;
  for (bool weighted : {false, true}) {
    cfg.mapping.weighted = weighted;
    for (const std::int64_t n : {n60, (std::int64_t{1} << 61) - 2}) {
      SCOPED_TRACE((weighted ? "weighted n = " : "count n = ") + std::to_string(n));
      r = run_pipeline(cosets(std::to_string(n)), cfg);
      ASSERT_EQ(r.plan->groups_materialized, 0u);  // the lattice plan ran
      ASSERT_EQ(r.plan->line_count, 4u);
      ASSERT_TRUE(r.lattice_stats.has_value());
      EXPECT_EQ(r.lattice_stats->group_count, 4u);
      EXPECT_EQ(r.lattice_stats->total_iterations, 4 * (static_cast<std::uint64_t>(n) + 1));
      EXPECT_EQ(r.sim.steps, n + 1);
      for (std::uint64_t g = 0; g < 4; ++g) EXPECT_EQ(r.plan->population(g), n + 1);
      // Four equal blocks on four processors, whichever split balances.
      std::vector<ProcId> owners;
      for (std::uint64_t g = 0; g < 4; ++g) owners.push_back(r.plan->owner(g));
      std::sort(owners.begin(), owners.end());
      EXPECT_EQ(owners, (std::vector<ProcId>{0, 1, 2, 3}));
    }
    EXPECT_THROW((void)run_pipeline(cosets(std::to_string(std::int64_t{1} << 61)), cfg),
                 ArithmeticError);
  }
}

}  // namespace
}  // namespace hypart
