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
#include "obs/metrics.hpp"
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
  std::int64_t bundle_arcs = 0;
  gl->for_each_line_and_bundle(
      [&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
        EXPECT_GT(pop, 0);
        (void)first_step;
        pop_by_group[g] += pop;
        total += static_cast<std::uint64_t>(pop);
      },
      [&](const GroupKey& src, const GroupKey& dst, std::size_t k, std::int64_t count,
          std::int64_t first_step) {
        EXPECT_GE(gl->group_population(src), count);
        EXPECT_LE(gl->sorted_index_of_group(dst), gl->group_count());
        EXPECT_LT(k, gl->original_deps().size());
        EXPECT_GT(count, 0);
        (void)first_step;
        bundle_arcs += count;
      });
  EXPECT_EQ(total, space.size());
  EXPECT_EQ(pop_by_group.size(), gl->group_count());
  for (const auto& [g, pop] : pop_by_group) EXPECT_EQ(pop, gl->group_population(g));
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
  gl->for_each_line_and_bundle(
      [&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
        EXPECT_GT(pop, 0);
        (void)first_step;
        pop_by_group[g] += pop;
        total += static_cast<std::uint64_t>(pop);
      },
      [](const GroupKey&, const GroupKey&, std::size_t, std::int64_t, std::int64_t) {});
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

    const auto [lo, hi] = space.step_range(tf->pi);
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

TEST(GroupLattice, RandomizedPricingMatchesOracleOnTies) {
  // The edge-driven pricing walk against the brute-force oracle on random
  // 2-D and 3-D lattice nests, with every Cost component weighing 1 so that
  // Costliest's tie-breaks (lowest processor, lowest link) decide many
  // segments: all three accountings, hop charging on and off, fault free
  // and under link faults whose breaks fall mid-run.
  std::mt19937 rng(0x71E5);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const MachineParams ties{1.0, 1.0, 1.0};
  for (int trial = 0; trial < 30; ++trial) {
    LoopNest nest = [&] {
      switch (trial % 10) {
        case 0: return workloads::sor2d(pick(3, 16), pick(3, 16));
        case 1: return workloads::pyramid_stencil(pick(6, 20));
        case 2: return workloads::floyd_warshall_band(pick(8, 24), pick(2, 6));
        case 3: return workloads::strided_recurrence(pick(6, 16), pick(2, 4));
        case 4: return workloads::triangular_matvec(pick(4, 16));
        case 5: return workloads::wavefront3d(pick(3, 7));
        case 6: return workloads::matrix_multiplication(pick(3, 6));
        case 7: return workloads::strided_recurrence3d(pick(4, 9), pick(2, 3));
        case 8: return workloads::lu_decomposition(pick(4, 9));
        default: return workloads::transitive_closure(pick(3, 6));
      }
    }();
    const unsigned dim = static_cast<unsigned>(pick(2, 3));
    const bool weighted = pick(0, 1) == 1;
    ComputationStructure q = ComputationStructure::from_loop(nest);
    std::optional<TimeFunction> tf = search_time_function(q);
    ASSERT_TRUE(tf.has_value()) << nest.name();
    ProjectedStructure ps(q, *tf);
    Grouping grouping = Grouping::compute(ps);
    Partition partition = Partition::build(q, grouping);
    HypercubeMapOptions mopts;
    mopts.weighted = weighted;
    Mapping map = map_to_hypercube(TaskInteractionGraph::from_partition(q, partition, grouping),
                                   dim, mopts)
                      .mapping;
    IterSpace space(nest, analyze_dependences(nest).distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, *tf);
    ASSERT_TRUE(gl.has_value()) << nest.name();
    LatticeHypercubeMapping lm = map_to_hypercube(*gl, dim, mopts);

    // Cube edges failing inside the schedule: one on the square, two on
    // the 3-cube (the second one later), so the cube stays connected.
    const auto [lo, hi] = space.step_range(tf->pi);
    auto edge_at = [&](std::int64_t step) {
      const std::int64_t a = pick(0, (std::int64_t{1} << dim) - 1);
      const std::int64_t b = a ^ (std::int64_t{1} << pick(0, dim - 1));
      return "link:" + std::to_string(a) + "-" + std::to_string(b) + "@" + std::to_string(step);
    };
    const std::int64_t first = pick(lo + 1, std::max(lo + 1, hi - 1));
    std::string faults = edge_at(first);
    if (dim == 3) faults += "," + edge_at(pick(first, std::max(first, hi)));
    Hypercube cube(dim);
    for (const std::string& spec : {std::string{}, faults}) {
      for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                                 CommAccounting::LinkContention}) {
        for (bool hops : {false, true}) {
          SCOPED_TRACE("trial " + std::to_string(trial) + " " + nest.name() + " dim=" +
                       std::to_string(dim) + " faults=" + spec + " acc=" +
                       std::to_string(static_cast<int>(acc)) + (hops ? " hops" : ""));
          SimOptions opts;
          opts.accounting = acc;
          opts.charge_hops = hops;
          if (!spec.empty()) opts.faults = fault::FaultPlan::parse(spec);
          const SimResult want = oracle::simulate(q, *tf, partition, map, cube, ties, opts);
          oracle::expect_matches(simulate_execution(q, *tf, partition, map, cube, ties, opts),
                                 want);
          oracle::expect_matches(simulate_execution(*gl, lm, cube, ties, opts), want);
        }
      }
    }
  }
}

TEST(GroupLattice, StrideResidueWrapKeepsEveryMessage) {
  // Under σ > 1 the pricing walk returns every level to zero at the end of
  // each residue, and those falling edges meet the next residue's first
  // rising edges.  Reading a row's level only after such a batch, instead
  // of following it edge by edge, once counted 1222 messages here.
  const LoopNest nest = workloads::strided_recurrence3d(9, 2);
  PipelineConfig cfg;
  cfg.cube_dim = 6;
  cfg.space_mode = SpaceMode::Symbolic;
  cfg.sim.accounting = CommAccounting::PerStepBarrier;
  PipelineResult r = run_pipeline(nest, cfg);
  EXPECT_EQ(r.sim.messages, 1741);
  EXPECT_EQ(r.sim.steps, 28);

  IterSpace space(nest, analyze_dependences(nest).distance_vectors());
  std::optional<GroupLattice> gl = GroupLattice::build(space, r.time_function);
  ASSERT_TRUE(gl.has_value());
  EXPECT_GT(gl->step_stride(), 1);
  ComputationStructure q = ComputationStructure::from_loop(nest);
  ProjectedStructure ps(q, r.time_function);
  Grouping grouping = Grouping::compute(ps);
  Partition partition = Partition::build(q, grouping);
  Mapping map =
      map_to_hypercube(TaskInteractionGraph::from_partition(q, partition, grouping), 6).mapping;
  Hypercube cube(6);
  for (CommAccounting acc : {CommAccounting::PerStepBarrier, CommAccounting::LinkContention}) {
    SimOptions opts;
    opts.accounting = acc;
    oracle::expect_matches(
        simulate_execution(*gl, map_to_hypercube(*gl, 6), cube, cfg.machine, opts),
        oracle::simulate(q, r.time_function, partition, map, cube, cfg.machine, opts));
  }
}

TEST(GroupLattice, FaultBreakAtTheEndKeepsLinkWords) {
  // Under σ > 1 the last residue can end before hi, with messages still in
  // flight to hi.  A fault break between its last step and the end of the
  // walk leaves its final falling edges to a rebuild that never comes; the
  // links still loaded must count their words up to the end all the same.
  // Breaks at the last steps and past hi are swept on the lattice feed
  // (link faults; its node-fault remap may break block ties differently)
  // and on the dense feed with telemetry on (link and node faults).
  const MachineParams ties{1.0, 1.0, 1.0};
  bool saw_stride = false;
  for (const LoopNest& nest :
       {workloads::sor2d(3, 3), workloads::sor2d(4, 4), workloads::pyramid_stencil(4),
        workloads::strided_recurrence3d(5, 2), workloads::wavefront3d(3),
        workloads::lu_decomposition(5)}) {
    ComputationStructure q = ComputationStructure::from_loop(nest);
    std::optional<TimeFunction> tf = search_time_function(q);
    ASSERT_TRUE(tf.has_value()) << nest.name();
    ProjectedStructure ps(q, *tf);
    Grouping grouping = Grouping::compute(ps);
    Partition partition = Partition::build(q, grouping);
    IterSpace space(nest, analyze_dependences(nest).distance_vectors());
    std::optional<GroupLattice> gl = GroupLattice::build(space, *tf);
    ASSERT_TRUE(gl.has_value()) << nest.name();
    saw_stride = saw_stride || gl->step_stride() > 1;
    const std::int64_t hi = space.step_range(tf->pi).second;
    for (unsigned dim : {2U, 3U}) {
      Hypercube cube(dim);
      Mapping map = map_to_hypercube(TaskInteractionGraph::from_partition(q, partition, grouping),
                                     dim)
                        .mapping;
      LatticeHypercubeMapping lm = map_to_hypercube(*gl, dim);
      for (std::int64_t at = hi - 1; at <= hi + gl->step_stride(); ++at) {
        std::vector<std::string> specs;
        for (ProcId a = 0; a < cube.size(); ++a) {
          specs.push_back("node:" + std::to_string(a) + "@" + std::to_string(at));
          for (unsigned bit = 0; bit < dim; ++bit)
            if (const ProcId b = a ^ (ProcId{1} << bit); a < b)
              specs.push_back("link:" + std::to_string(a) + "-" + std::to_string(b) + "@" +
                              std::to_string(at));
        }
        for (const std::string& spec : specs) {
          SCOPED_TRACE(nest.name() + " dim=" + std::to_string(dim) + " faults=" + spec);
          SimOptions opts;
          opts.accounting = CommAccounting::LinkContention;
          opts.faults = fault::FaultPlan::parse(spec);
          const SimResult want = oracle::simulate(q, *tf, partition, map, cube, ties, opts);
          if (spec.starts_with("link"))
            oracle::expect_matches(simulate_execution(*gl, lm, cube, ties, opts), want);
          obs::MetricsRegistry reg;
          opts.obs.metrics = &reg;
          oracle::expect_matches(simulate_execution(q, *tf, partition, map, cube, ties, opts),
                                 want);
          EXPECT_EQ(reg.snapshot().gauges.at("sim.max_link_words"),
                    static_cast<double>(want.max_link_words));
        }
      }
    }
  }
  EXPECT_TRUE(saw_stride) << "no nest exercised a step stride above 1";
}

TEST(GroupLattice, NodeFaultPlansMatchRecordedResults) {
  // The lattice feed under node faults remaps blocks in the lattice's
  // sorted group order, which can break block-id ties differently from the
  // dense plan; verify mode does not compare them.  These totals were
  // recorded from the lattice feed before it indexed blocks through the
  // run-order permutation, at cube dimension 3.
  struct Nest {
    LoopNest nest;
    IntVec pi;
    bool weighted;
  };
  const std::vector<Nest> nests = {
      {workloads::sor2d(12, 9), {1, 1}, false},
      {workloads::pyramid_stencil(14), {1, 1}, false},
      {workloads::floyd_warshall_band(20, 4), {}, false},
      {workloads::wavefront3d(5), {1, 1, 1}, false},
      {workloads::strided_recurrence3d(6, 2), {1, 1, 1}, false},
      {workloads::lu_decomposition(8), {1, 1, 1}, true},
  };
  struct Recorded {
    std::size_t nest;
    const char* faults;
    CommAccounting acc;
    const char* total;
    std::int64_t messages, rerouted, migrated, max_link_words;
  };
  const std::vector<Recorded> recorded = {
      {0, "node:2@5", CommAccounting::PaperMaxChannel,
       "99 t_calc + 34(t_start+t_comm)", 78, 15, 1, 0},
      {0, "node:2@5", CommAccounting::PerStepBarrier,
       "111 t_calc + 41(t_start+t_comm)", 78, 15, 1, 0},
      {0, "node:2@5", CommAccounting::LinkContention,
       "114 t_calc + 36(t_start+t_comm)", 78, 15, 1, 13},
      {0, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PaperMaxChannel,
       "99 t_calc + 28(t_start+t_comm)", 77, 18, 1, 0},
      {0, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PerStepBarrier,
       "102 t_calc + 33(t_start+t_comm)", 77, 18, 1, 0},
      {0, "link:0-2,node:1@4,link:4-5@6", CommAccounting::LinkContention,
       "105 t_calc + 37(t_start+t_comm)", 77, 18, 1, 16},
      {1, "node:2@5", CommAccounting::PaperMaxChannel,
       "32 t_calc + 22(t_start+t_comm)", 42, 5, 1, 0},
      {1, "node:2@5", CommAccounting::PerStepBarrier,
       "44 t_calc + 22(t_start+t_comm)", 42, 5, 1, 0},
      {1, "node:2@5", CommAccounting::LinkContention,
       "44 t_calc + 22(t_start+t_comm)", 42, 5, 1, 7},
      {1, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PaperMaxChannel,
       "30 t_calc + 24(t_start+t_comm)", 50, 15, 1, 0},
      {1, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PerStepBarrier,
       "36 t_calc + 29(t_start+t_comm)", 50, 15, 1, 0},
      {1, "link:0-2,node:1@4,link:4-5@6", CommAccounting::LinkContention,
       "36 t_calc + 32(t_start+t_comm)", 50, 15, 1, 11},
      {2, "node:2@5", CommAccounting::PaperMaxChannel,
       "123 t_calc + 40(t_start+t_comm)", 148, 17, 0, 0},
      {2, "node:2@5", CommAccounting::PerStepBarrier,
       "123 t_calc + 40(t_start+t_comm)", 148, 17, 0, 0},
      {2, "node:2@5", CommAccounting::LinkContention,
       "123 t_calc + 40(t_start+t_comm)", 148, 17, 0, 36},
      {2, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PaperMaxChannel,
       "159 t_calc + 77(t_start+t_comm)", 151, 67, 1, 0},
      {2, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PerStepBarrier,
       "174 t_calc + 98 t_start + 99 t_comm", 150, 67, 1, 0},
      {2, "link:0-2,node:1@4,link:4-5@6", CommAccounting::LinkContention,
       "174 t_calc + 112 t_start + 113 t_comm", 150, 67, 1, 52},
      {3, "node:2@5", CommAccounting::PaperMaxChannel,
       "75 t_calc + 35(t_start+t_comm)", 138, 33, 3, 0},
      {3, "node:2@5", CommAccounting::PerStepBarrier,
       "96 t_calc + 47 t_start + 54 t_comm", 121, 27, 3, 0},
      {3, "node:2@5", CommAccounting::LinkContention,
       "102 t_calc + 45 t_start + 50 t_comm", 121, 27, 3, 21},
      {3, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PaperMaxChannel,
       "75 t_calc + 39(t_start+t_comm)", 147, 63, 3, 0},
      {3, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PerStepBarrier,
       "84 t_calc + 46 t_start + 54 t_comm", 124, 49, 3, 0},
      {3, "link:0-2,node:1@4,link:4-5@6", CommAccounting::LinkContention,
       "99 t_calc + 56 t_start + 64 t_comm", 124, 49, 3, 43},
      {4, "node:2@5", CommAccounting::PaperMaxChannel,
       "146 t_calc + 98(t_start+t_comm)", 397, 49, 7, 0},
      {4, "node:2@5", CommAccounting::PerStepBarrier,
       "144 t_calc + 84 t_start + 137 t_comm", 212, 30, 7, 0},
      {4, "node:2@5", CommAccounting::LinkContention,
       "168 t_calc + 76 t_start + 114 t_comm", 212, 30, 7, 79},
      {4, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PaperMaxChannel,
       "146 t_calc + 135(t_start+t_comm)", 420, 176, 7, 0},
      {4, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PerStepBarrier,
       "124 t_calc + 125 t_start + 156 t_comm", 248, 109, 7, 0},
      {4, "link:0-2,node:1@4,link:4-5@6", CommAccounting::LinkContention,
       "152 t_calc + 143 t_start + 211 t_comm", 248, 109, 7, 124},
      {5, "node:2@5", CommAccounting::PaperMaxChannel,
       "148 t_calc + 81(t_start+t_comm)", 244, 45, 3, 0},
      {5, "node:2@5", CommAccounting::PerStepBarrier,
       "184 t_calc + 86 t_start + 99 t_comm", 195, 41, 3, 0},
      {5, "node:2@5", CommAccounting::LinkContention,
       "232 t_calc + 75 t_start + 86 t_comm", 195, 41, 3, 44},
      {5, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PaperMaxChannel,
       "124 t_calc + 58(t_start+t_comm)", 211, 69, 5, 0},
      {5, "link:0-2,node:1@4,link:4-5@6", CommAccounting::PerStepBarrier,
       "184 t_calc + 85 t_start + 91 t_comm", 189, 63, 5, 0},
      {5, "link:0-2,node:1@4,link:4-5@6", CommAccounting::LinkContention,
       "204 t_calc + 94 t_start + 99 t_comm", 189, 63, 5, 51},
  };
  for (const Recorded& want : recorded) {
    const Nest& n = nests[want.nest];
    SCOPED_TRACE(n.nest.name() + " faults=" + want.faults +
                 " acc=" + std::to_string(static_cast<int>(want.acc)));
    PipelineConfig cfg;
    if (!n.pi.empty()) cfg.time_function = n.pi;
    cfg.mapping.weighted = n.weighted;
    cfg.sim.faults = fault::FaultPlan::parse(want.faults);
    cfg.sim.accounting = want.acc;
    cfg.space_mode = SpaceMode::Symbolic;
    PipelineResult r = run_pipeline(n.nest, cfg);
    ASSERT_TRUE(r.lattice_stats.has_value());
    EXPECT_EQ(r.sim.total.to_string(), want.total);
    EXPECT_EQ(r.sim.messages, want.messages);
    EXPECT_EQ(r.sim.rerouted_messages, want.rerouted);
    EXPECT_EQ(r.sim.migrated_blocks, want.migrated);
    EXPECT_EQ(r.sim.max_link_words, want.max_link_words);
  }
}

/// Every field of two sweep results.
void expect_same_sweep(const LatticeSweepResult& got, const LatticeSweepResult& want) {
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
  EXPECT_EQ(got.theorem2, want.theorem2);
  EXPECT_EQ(got.lemmas, want.lemmas);
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
  std::vector<Line> want_lines;
  oracle::for_each_line(*gl, [&](const GroupKey& g, std::int64_t pop, std::int64_t step) {
    want_lines.emplace_back(g, pop, step);
  });
  EXPECT_FALSE(want_lines.empty());

  using Bundle = std::tuple<GroupKey, GroupKey, std::size_t, std::int64_t, std::int64_t>;
  std::vector<Bundle> want_bundles;
  oracle::for_each_arc_bundle(*gl, [&](const GroupKey& src, const GroupKey& dst, std::size_t k,
                                       std::int64_t count, std::int64_t step) {
    want_bundles.emplace_back(src, dst, k, count, step);
  });

  for (bool validate : {true, false}) {
    SCOPED_TRACE(validate ? "sweep(true)" : "sweep(false)");
    expect_same_sweep(gl->sweep(validate), oracle::sweep(*gl, validate));
  }

  // The walk hands out the oracle's lines and bundles, each line just
  // before its own bundles.
  std::vector<Line> fused_lines;
  std::vector<Bundle> fused_bundles;
  gl->for_each_line_and_bundle(
      [&](const GroupKey& g, std::int64_t pop, std::int64_t step) {
        fused_lines.emplace_back(g, pop, step);
      },
      [&](const GroupKey& src, const GroupKey& dst, std::size_t k, std::int64_t count,
          std::int64_t step) {
        ASSERT_FALSE(fused_lines.empty());
        EXPECT_EQ(std::get<0>(fused_lines.back()), src);
        fused_bundles.emplace_back(src, dst, k, count, step);
      });
  EXPECT_EQ(fused_lines, want_lines);
  EXPECT_EQ(fused_bundles, want_bundles);

  // Group populations in run order (population_prefix) against the
  // oracle's per-line populations, and sorted_order() as the permutation
  // from run order to the canonical order.
  std::map<GroupKey, std::int64_t> pop_by_group;
  for (const Line& line : want_lines) pop_by_group[std::get<0>(line)] += std::get<1>(line);
  const std::vector<std::int64_t> pre = gl->population_prefix();
  const std::vector<std::uint64_t> order = gl->sorted_order();
  ASSERT_EQ(order.size(), pop_by_group.size());
  ASSERT_EQ(pre.size(), order.size() + 1);
  std::vector<char> seen(order.size(), 0);
  for (const GroupLattice::Run& run : gl->runs()) {
    for (std::int64_t a = run.a_lo; a <= run.a_hi; ++a) {
      const std::uint64_t j = run.first + static_cast<std::uint64_t>(a - run.a_lo);
      ASSERT_LT(order[j], order.size());
      EXPECT_EQ(seen[order[j]]++, 0) << "sorted index " << order[j] << " repeats";
      const GroupKey g = gl->group_at_sorted_index(order[j]);
      EXPECT_EQ(g.a, a);
      EXPECT_EQ(g.b, run.b);
      EXPECT_EQ(gl->run_of(g), static_cast<std::size_t>(&run - gl->runs().data()));
      EXPECT_EQ(pre[j + 1] - pre[j], pop_by_group[g])
          << "group (" << g.a << "," << g.b << "," << g.comp << ")";
    }
  }
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

/// What a lattice's walk exercises in the plane walker's range window: the
/// largest |Δb| of an arc bundle, the longest run, whether the runs differ
/// in length, and whether the cosets' runs cover different b ranges.
struct WalkShape {
  std::int64_t max_db = 0;
  std::int64_t longest_run = 0;
  bool uneven_runs = false;
  bool uneven_cosets = false;
};

WalkShape walk_shape(const GroupLattice& gl) {
  WalkShape shape;
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> b_range;  // by coset
  for (const GroupLattice::Run& run : gl.runs()) {
    const std::int64_t len = run.t_hi - run.t_lo + 1;
    if (shape.longest_run != 0 && len != shape.longest_run) shape.uneven_runs = true;
    shape.longest_run = std::max(shape.longest_run, len);
    auto [it, fresh] = b_range.try_emplace(run.comp, run.b, run.b);
    it->second.first = std::min(it->second.first, run.b);
    it->second.second = std::max(it->second.second, run.b);
  }
  for (const auto& [comp, range] : b_range)
    if (range != b_range.begin()->second) shape.uneven_cosets = true;
  gl.for_each_line_and_bundle(
      [](const GroupKey&, std::int64_t, std::int64_t) {},
      [&](const GroupKey& src, const GroupKey& dst, std::size_t, std::int64_t, std::int64_t) {
        shape.max_db = std::max(shape.max_db, std::abs(dst.b - src.b));
      });
  return shape;
}

WalkShape walk_shape(const IterSpace& space, const TimeFunction& tf) {
  const std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
  return gl ? walk_shape(*gl) : WalkShape{};
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
  // The plane walker's range window.  |Δb| = 2: the (0, 2, 1) and
  // (1, 3, 1) dependences reach two b values away, so the window spans five.
  for (const IterSpace& space :
       {IterSpace({{0, 7}, {0, 6}, {0, 5}}, {IntVec{1, 0, 0}, IntVec{0, 1, 0}, IntVec{1, 3, 1}}),
        IterSpace({{-2, 5}, {1, 9}, {0, 3}},
                  {IntVec{0, 0, 1}, IntVec{1, 0, 0}, IntVec{0, 2, 1}})}) {
    const TimeFunction tf{IntVec{1, 1, 1}};
    EXPECT_EQ(walk_shape(space, tf).max_db, 2);
    expect_walk_matches_oracle(space, tf, "|db| = 2");
  }
  // Runs longer than 64 lines.
  EXPECT_GT(walk_shape(IterSpace(workloads::wavefront3d(70),
                                 analyze_dependences(workloads::wavefront3d(70))
                                     .distance_vectors()),
                       TimeFunction{IntVec{1, 1, 1}})
                .longest_run,
            64);
  expect_walk_matches_oracle(workloads::wavefront3d(70), {1, 1, 1});
  // Cosets whose runs cover different b ranges, on uneven extents.
  for (std::int64_t stride : {2, 3}) {
    const IterSpace space({{0, 9}, {0, 6}, {0, 11}},
                          {IntVec{stride, 0, 0}, IntVec{0, stride, 0}, IntVec{0, 0, stride}});
    const TimeFunction tf{IntVec{1, 1, 1}};
    const WalkShape shape = walk_shape(space, tf);
    EXPECT_TRUE(shape.uneven_cosets) << "stride " << stride;
    expect_walk_matches_oracle(space, tf, "uneven strided3d, s = " + std::to_string(stride));
  }
  // Runs of varying length: the lu prism.
  {
    const LoopNest lu = workloads::lu_decomposition(14);
    EXPECT_TRUE(walk_shape(IterSpace(lu, analyze_dependences(lu).distance_vectors()),
                           TimeFunction{IntVec{1, 1, 1}})
                    .uneven_runs);
    expect_walk_matches_oracle(lu, {1, 1, 1});
    expect_walk_matches_oracle(lu, {});
  }
  // Seeded random 3-D boxes with dependence entries in [-2, 2]: every plan
  // that builds a lattice walks like the oracle.
  {
    std::mt19937 rng(0x3D3D);
    auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    int planes = 0, far = 0;
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<DimBounds> box;
      for (int i = 0; i < 3; ++i) {
        const std::int64_t lo = pick(-3, 3);
        box.emplace_back(lo, lo + pick(0, 9));
      }
      std::vector<IntVec> deps;
      while (deps.size() < static_cast<std::size_t>(pick(2, 4))) {
        IntVec d{pick(-2, 2), pick(-2, 2), pick(-2, 2)};
        if (!is_zero(d) && std::find(deps.begin(), deps.end(), d) == deps.end())
          deps.push_back(d);
      }
      const IterSpace space(box, deps);
      const std::optional<TimeFunction> tf = search_time_function(space);
      if (!tf || !GroupLattice::build(space, *tf)) continue;
      ++planes;
      if (walk_shape(space, *tf).max_db >= 2) ++far;
      expect_walk_matches_oracle(space, *tf, "random 3-D trial " + std::to_string(trial));
    }
    EXPECT_GE(planes, 15);
    EXPECT_GE(far, 1);
  }
  // Degenerate lattices: every dependence parallel to Π, each line its own
  // group, in either lexicographic orientation.
  expect_walk_matches_oracle(IterSpace({{0, 5}, {-2, 6}}, {IntVec{0, 1}, IntVec{0, 2}}),
                             TimeFunction{IntVec{0, 1}}, "degenerate (0,1)");
  expect_walk_matches_oracle(IterSpace({{0, 6}, {0, 4}}, {IntVec{1, 1}}),
                             TimeFunction{IntVec{1, 1}}, "degenerate (1,1)");
  expect_walk_matches_oracle(IterSpace({{-3, 4}, {0, 5}}, {IntVec{1, -1}}),
                             TimeFunction{IntVec{1, -1}}, "degenerate (1,-1)");
}

TEST(GroupLattice, FusedWalkMatchesSweep) {
  // A lattice plan fills its blocks, arc counts and verdicts from the walk
  // its simulate() drives through the accounting core.  On random 2-D and
  // 3-D lattice nests (multi-coset planes, step strides above 1, weighted
  // mappings among them), under every accounting, fault free and under link
  // and node faults, with the checks on and off: the walk's sweep equals
  // the sweep-only walk field for field, and feeding it leaves the
  // simulation unchanged.
  std::mt19937 rng(0x5EE9);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  bool saw_stride = false, saw_cosets = false;
  for (int trial = 0; trial < 24; ++trial) {
    IntVec pi;
    LoopNest nest = [&] {
      switch (trial % 12) {
        case 0: return workloads::sor2d(pick(3, 16), pick(3, 16));
        case 1: return workloads::pyramid_stencil(pick(6, 20));
        case 2: return workloads::floyd_warshall_band(pick(8, 24), pick(2, 6));
        case 3: return workloads::strided_recurrence(pick(6, 16), pick(2, 4));
        case 4: return workloads::triangular_matvec(pick(4, 16));
        case 5: return workloads::wavefront3d(pick(3, 7));
        case 6: return workloads::matrix_multiplication(pick(3, 6));
        case 7: return workloads::strided_recurrence3d(pick(5, 9), pick(2, 3));
        case 8: return workloads::lu_decomposition(pick(4, 9));
        case 9:
          pi = pick(0, 1) == 1 ? IntVec{1, 1, 2} : IntVec{1, 1, 3};
          return workloads::wavefront3d(pick(3, 6));
        case 10: return workloads::example_l1(pick(3, 9));
        default: return workloads::transitive_closure(pick(3, 6));
      }
    }();
    IterSpace space(nest, analyze_dependences(nest).distance_vectors());
    TimeFunction tf{pi};
    if (pi.empty()) {
      std::optional<TimeFunction> searched = search_time_function(space);
      ASSERT_TRUE(searched.has_value()) << nest.name();
      tf = *searched;
    }
    std::optional<GroupLattice> gl = GroupLattice::build(space, tf);
    ASSERT_TRUE(gl.has_value()) << nest.name();
    saw_stride = saw_stride || gl->step_stride() > 1;
    saw_cosets = saw_cosets || gl->component_count() > 1;
    const unsigned dim = static_cast<unsigned>(pick(2, 3));
    HypercubeMapOptions mopts;
    mopts.weighted = pick(0, 1) == 1;
    const LatticeHypercubeMapping lm = map_to_hypercube(*gl, dim, mopts);
    const Hypercube cube(dim);
    const auto [lo, hi] = space.step_range(tf.pi);
    const std::int64_t mid = (lo + hi) / 2;
    const std::string faults[] = {"", "link:0-1@" + std::to_string(mid),
                                  "node:" + std::to_string(pick(1, 3)) + "@" +
                                      std::to_string(mid)};
    for (bool validate : {true, false}) {
      const LatticeSweepResult want = gl->sweep(validate);
      for (const std::string& spec : faults) {
        for (CommAccounting acc : {CommAccounting::PaperMaxChannel,
                                   CommAccounting::PerStepBarrier,
                                   CommAccounting::LinkContention}) {
          SCOPED_TRACE("trial " + std::to_string(trial) + " " + nest.name() + " pi=" +
                       tf.to_string() + " dim=" + std::to_string(dim) + " faults=" + spec +
                       " acc=" + std::to_string(static_cast<int>(acc)) +
                       (validate ? " validate" : ""));
          SimOptions opts;
          opts.accounting = acc;
          if (!spec.empty()) opts.faults = fault::FaultPlan::parse(spec);
          const MachineParams machine;
          GroupLattice::Sweep walk(*gl, validate);
          const SimResult fed = simulate_execution(*gl, lm, cube, machine, opts, &walk);
          EXPECT_EQ(first_difference(fed, simulate_execution(*gl, lm, cube, machine, opts)), "");
          expect_same_sweep(walk.finish(), want);

          // The plan view: blocks, arc counts and verdicts after simulate().
          std::unique_ptr<PlanView> plan = make_lattice_plan(*gl, validate);
          plan->map(dim, mopts);
          EXPECT_EQ(first_difference(plan->simulate(cube, machine, opts), fed), "");
          EXPECT_EQ(plan->blocks.group_count, want.stats.group_count);
          EXPECT_EQ(plan->blocks.total_iterations, want.stats.total_iterations);
          EXPECT_EQ(plan->blocks.min_block, want.stats.min_block);
          EXPECT_EQ(plan->blocks.max_block, want.stats.max_block);
          EXPECT_EQ(plan->stats.total_arcs, want.partition.total_arcs);
          EXPECT_EQ(plan->stats.interblock_arcs, want.partition.interblock_arcs);
          EXPECT_EQ(plan->stats.intrablock_arcs, want.partition.intrablock_arcs);
          const PlanChecks c = plan->check();
          EXPECT_EQ(c.exact_cover, want.exact_cover);
          EXPECT_EQ(c.theorem1, want.theorem1);
          EXPECT_EQ(c.theorem2, want.theorem2);
          EXPECT_EQ(c.lemmas, want.lemmas);
        }
      }
    }
  }
  EXPECT_TRUE(saw_stride) << "no nest exercised a step stride above 1";
  EXPECT_TRUE(saw_cosets) << "no nest exercised more than one coset";
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
