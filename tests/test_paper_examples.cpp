// End-to-end fidelity tests: every concrete number the paper states,
// checked against the library (Figs. 1, 3, 5, 6, 7, 8, Table I).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/pipeline.hpp"
#include "exec/interpreter.hpp"
#include "mapping/baseline_map.hpp"
#include "perf/perf_model.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

// ---- Section II / Fig. 1: loop L1 -----------------------------------------

TEST(PaperFig1, L1DependencesAndHyperplanes) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  // D = {(0,1), (1,1), (1,0)}.
  std::set<IntVec> deps(q.dependences().begin(), q.dependences().end());
  EXPECT_EQ(deps, (std::set<IntVec>{{0, 1}, {1, 1}, {1, 0}}));
  // Hyperplanes i + j = 0..6.
  ScheduleProfile p = profile_schedule(TimeFunction{{1, 1}}, q.vertices());
  EXPECT_EQ(p.step_count, 7u);
}

// ---- Section II / Fig. 3: projection and partitioning of L1 ----------------

TEST(PaperFig3, SevenProjectedPointsSevenLines) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  EXPECT_EQ(ps.point_count(), 7u);
  // The paper's rational V^p: (-3/2,3/2), (-1,1), (-1/2,1/2), (0,0),
  // (1/2,-1/2), (1,-1), (3/2,-3/2).
  std::set<std::pair<std::string, std::string>> expected = {
      {"-3/2", "3/2"}, {"-1", "1"}, {"-1/2", "1/2"}, {"0", "0"},
      {"1/2", "-1/2"}, {"1", "-1"}, {"3/2", "-3/2"}};
  std::set<std::pair<std::string, std::string>> actual;
  for (std::size_t i = 0; i < ps.point_count(); ++i) {
    RatVec r = ps.point_rational(i);
    actual.insert({r[0].to_string(), r[1].to_string()});
  }
  EXPECT_EQ(actual, expected);
}

TEST(PaperFig3, FourGroupsAnd12Of33Interblock) {
  // "There are four groups ... the number of data dependencies between
  // index points is 33, and only 12 of them require interprocessor
  // communication."
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  EXPECT_EQ(g.group_count(), 4u);
  Partition part = Partition::build(q, g);
  PartitionStats stats = compute_partition_stats(q, part);
  EXPECT_EQ(stats.total_arcs, 33u);
  EXPECT_EQ(stats.interblock_arcs, 12u);
}

TEST(PaperFig3, ProjectedDependenceVectorsOfL1) {
  // d1^p = (-1/2,1/2), d2^p = (0,0), d3^p = (1/2,-1/2).
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  std::multiset<std::string> actual;
  for (std::size_t k = 0; k < 3; ++k) {
    RatVec d = ps.projected_dep_rational(k);
    actual.insert(d[0].to_string() + "," + d[1].to_string());
  }
  EXPECT_EQ(actual, (std::multiset<std::string>{"-1/2,1/2", "0,0", "1/2,-1/2"}));
}

// ---- Example 2 / Figs. 4-6: matrix multiplication ---------------------------

TEST(PaperExample2, DependenceMatrixColumns) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  std::set<IntVec> deps(q.dependences().begin(), q.dependences().end());
  EXPECT_EQ(deps, (std::set<IntVec>{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}));
  EXPECT_EQ(q.vertices().size(), 64u);
}

TEST(PaperFig5, ThirtySevenProjectedPointsAndDeps) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  EXPECT_EQ(ps.point_count(), 37u);
  std::set<std::string> dep_strs;
  for (std::size_t k = 0; k < 3; ++k) {
    RatVec d = ps.projected_dep_rational(k);
    dep_strs.insert(d[0].to_string() + "," + d[1].to_string() + "," + d[2].to_string());
  }
  EXPECT_EQ(dep_strs,
            (std::set<std::string>{"-1/3,2/3,-1/3", "2/3,-1/3,-1/3", "-1/3,-1/3,2/3"}));
}

TEST(PaperFig5, GroupingPhaseParameters) {
  // β = rank(mat(D^p)) = 2, r = 3.
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  EXPECT_EQ(ps.projected_rank(), 2u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(ps.replication_factor(k), 3);
}

GroupingOptions paper_matmul_options(const ProjectedStructure& ps) {
  // Grouping vector d_A^p = (-1/3,2/3,-1/3), auxiliary d_C^p = (-1/3,-1/3,2/3),
  // seed base vertex (-1,-1,2) (scaled by 3).
  GroupingOptions opts;
  std::vector<std::size_t> aux;
  const std::vector<IntVec>& pdeps = ps.projected_deps_scaled();
  for (std::size_t k = 0; k < pdeps.size(); ++k) {
    if (pdeps[k] == IntVec{-1, 2, -1}) opts.grouping_vector = k;
    if (pdeps[k] == IntVec{-1, -1, 2}) aux.push_back(k);
  }
  opts.auxiliary_vectors = aux;
  opts.seed_policy = SeedPolicy::ExplicitBases;
  opts.explicit_bases = {{-3, -3, 6}};
  return opts;
}

TEST(PaperFig6, SeventeenGroups) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  Grouping g = Grouping::compute(ps, paper_matmul_options(ps));
  EXPECT_EQ(g.group_count(), 17u);
  Partition part = Partition::build(q, g);
  EXPECT_TRUE(check_exact_cover(q, part));
  EXPECT_TRUE(check_theorem1(q, TimeFunction{{1, 1, 1}}, part));
}

TEST(PaperFig7, InteriorGroupSendsToFourGroups) {
  // "there are 2x3-2 = 4 groups that depend on the group G_10" — the
  // Theorem 2 bound 2m-β = 4 is attained by interior groups.
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  Grouping g = Grouping::compute(ps, paper_matmul_options(ps));
  Theorem2Report t2 = check_theorem2(g);
  EXPECT_EQ(t2.bound, 4u);
  EXPECT_EQ(t2.max_out_degree, 4u);
  EXPECT_TRUE(t2.holds);
}

// ---- L3 / L5: the paper's hand-rewritten single-assignment forms ------------

TEST(PaperRewrittenForms, L3MatchesNaturalMatmulDependences) {
  // The paper rewrites L2 into L3 to expose constant dependences; our
  // analyzer extracts the same D from both forms.
  ComputationStructure natural =
      ComputationStructure::from_loop(workloads::matrix_multiplication());
  ComputationStructure rewritten =
      ComputationStructure::from_loop(workloads::matrix_multiplication_rewritten());
  std::set<IntVec> dn(natural.dependences().begin(), natural.dependences().end());
  std::set<IntVec> dr(rewritten.dependences().begin(), rewritten.dependences().end());
  EXPECT_EQ(dn, dr);

  // And the partitioning phase treats both identically.
  ProjectedStructure pn(natural, TimeFunction{{1, 1, 1}});
  ProjectedStructure pr(rewritten, TimeFunction{{1, 1, 1}});
  EXPECT_EQ(pn.point_count(), pr.point_count());
  EXPECT_EQ(pn.projected_rank(), pr.projected_rank());
  EXPECT_EQ(Grouping::compute(pn).group_size_r(), Grouping::compute(pr).group_size_r());
}

TEST(PaperRewrittenForms, L5MatchesNaturalMatvecDependences) {
  ComputationStructure natural = ComputationStructure::from_loop(workloads::matrix_vector(6));
  ComputationStructure rewritten =
      ComputationStructure::from_loop(workloads::matrix_vector_rewritten(6));
  std::set<IntVec> dn(natural.dependences().begin(), natural.dependences().end());
  std::set<IntVec> dr(rewritten.dependences().begin(), rewritten.dependences().end());
  EXPECT_EQ(dn, dr);
  ProjectedStructure pn(natural, TimeFunction{{1, 1}});
  ProjectedStructure pr(rewritten, TimeFunction{{1, 1}});
  EXPECT_EQ(pn.point_count(), pr.point_count());
  Grouping gn = Grouping::compute(pn);
  Grouping gr = Grouping::compute(pr);
  EXPECT_EQ(gn.group_count(), gr.group_count());
}

TEST(PaperRewrittenForms, L5PipelinedValuesMatchMatvecSums) {
  // In L5, yp[i, M] accumulates sum_j A[i,j]*xp[i,j] where xp pipelines the
  // column value downward: xp[i,j] == xp[0-boundary init of column j].
  const std::int64_t m = 4;
  ArrayStore out = run_sequential(workloads::matrix_vector_rewritten(m));
  for (std::int64_t i = 1; i <= m; ++i) {
    double expect = default_init("yp", {i, 0});
    for (std::int64_t j = 1; j <= m; ++j)
      expect += default_init("A", {i, j}) * default_init("xp", {0, j});
    ASSERT_TRUE(out.load("yp", {i, m}).has_value());
    EXPECT_NEAR(*out.load("yp", {i, m}), expect, 1e-9);
  }
}

// ---- Example 3 / Fig. 8: mapping the 4x4 mesh TIG onto a 3-cube -------------

TEST(PaperFig8, MeshTigMapping) {
  TaskInteractionGraph tig = TaskInteractionGraph::mesh(4, 4);
  HypercubeMappingResult res = map_to_hypercube(tig, 3);
  // 8 clusters of two blocks each, one per processor.
  EXPECT_EQ(res.clusters.size(), 8u);
  std::set<ProcId> procs;
  for (const Cluster& c : res.clusters) {
    EXPECT_EQ(c.vertices.size(), 2u);
    procs.insert(c.processor);
  }
  EXPECT_EQ(procs.size(), 8u);

  // Neighboring mesh blocks never land more than 2 hops apart, and all
  // cluster-internal pairs are mesh neighbors (paired along a mesh edge).
  Hypercube cube(3);
  MappingMetrics m = evaluate_mapping(tig, res.mapping, cube);
  EXPECT_LE(m.avg_hops_weighted, 2.0);
  for (const Cluster& c : res.clusters) {
    ASSERT_EQ(c.vertices.size(), 2u);
    EXPECT_EQ(tig.comm_weight(c.vertices[0], c.vertices[1]), 1);
  }
}

// ---- Section IV / Table I: matrix-vector multiplication ---------------------

TEST(PaperTableI, ClosedFormRows) {
  struct Row {
    std::int64_t n;
    Cost expected;
  };
  const Row rows[] = {
      {1, {2097152, 0, 0}},   {4, {786944, 2046, 2046}},  {16, {245888, 2046, 2046}},
      {64, {64544, 2046, 2046}}, {256, {16328, 2046, 2046}}, {1024, {4094, 2046, 2046}},
  };
  for (const Row& r : rows) EXPECT_EQ(perf::matvec_exec_time(1024, r.n), r.expected) << r.n;
}

TEST(PaperTableI, SimulatedMatchesClosedFormAtReducedScale) {
  // Full pipeline on M = 64 (same shape as Table I, laptop-sized) must equal
  // the analytic model exactly for each machine size.
  const std::int64_t m = 64;
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  for (unsigned dim : {0u, 1u, 2u, 3u, 4u}) {
    cfg.cube_dim = dim;
    PipelineResult r = run_pipeline(workloads::matrix_vector(m), cfg);
    Cost expected = perf::matvec_exec_time(m, std::int64_t{1} << dim);
    EXPECT_EQ(r.sim.total, expected) << "N = " << (1 << dim);
  }
}

TEST(PaperSectionIV, MGroupsOfTwoLines) {
  // "there are M groups and every one has two projected points except the
  // one at boundary" and the largest block contains the main diagonal.
  const std::int64_t m = 16;
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_vector(m));
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  EXPECT_EQ(g.group_count(), static_cast<std::size_t>(m));
  std::size_t twos = 0, ones = 0;
  for (const Group& grp : g.groups()) {
    if (grp.size() == 2) ++twos;
    if (grp.size() == 1) ++ones;
  }
  EXPECT_EQ(twos, static_cast<std::size_t>(m - 1));
  EXPECT_EQ(ones, 1u);
  Partition p = Partition::build(q, g);
  EXPECT_EQ(p.max_block_size(), static_cast<std::size_t>(2 * m - 1));
}

// ---- Symbolic IterSpace, verify mode ---------------------------------------
// space_mode = Verify runs the dense pipeline, re-derives every stage from
// the closed-form IterSpace, and throws Error(ErrorKind::Internal) on any
// disagreement — so each paper number below is checked on both backends.

TEST(SymbolicVerify, L1PaperCounts) {
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  cfg.space_mode = SpaceMode::Verify;
  PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
  EXPECT_EQ(r.space_mode, SpaceMode::Verify);
  ASSERT_NE(r.space, nullptr);
  EXPECT_EQ(r.iteration_count(), 16u);
  EXPECT_EQ(r.plan->line_count, 7u);
  EXPECT_EQ(r.block_sizes.size(), 4u);
  EXPECT_EQ(r.plan->stats.total_arcs, 33u);
  EXPECT_EQ(r.plan->stats.interblock_arcs, 12u);
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem1);
}

TEST(SymbolicVerify, MatmulPaperGrouping) {
  // The Fig. 6 grouping (17 groups, β = 2, r = 3) under the paper's pinned
  // grouping vector and seed, cross-checked dense vs symbolic.
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication());
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1, 1};
  cfg.grouping = paper_matmul_options(ps);
  cfg.space_mode = SpaceMode::Verify;
  PipelineResult r = run_pipeline(workloads::matrix_multiplication(), cfg);
  EXPECT_EQ(r.plan->line_count, 37u);
  EXPECT_EQ(r.plan->beta, 2u);
  EXPECT_EQ(r.plan->group_size_r, 3);
  EXPECT_EQ(r.block_sizes.size(), 17u);
  std::int64_t covered = 0;
  for (std::int64_t b : r.block_sizes) covered += b;
  EXPECT_EQ(covered, 64);
  EXPECT_TRUE(r.theorem2.holds);
}

TEST(SymbolicVerify, MatvecTableITotalsAllCubeSizes) {
  // Table I at M = 64: the symbolic simulator must reproduce the dense run
  // (verify mode asserts it) and both must equal the closed-form model.
  const std::int64_t m = 64;
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  cfg.space_mode = SpaceMode::Verify;
  for (unsigned dim : {0u, 2u, 4u}) {
    cfg.cube_dim = dim;
    PipelineResult r = run_pipeline(workloads::matrix_vector(m), cfg);
    Cost expected = perf::matvec_exec_time(m, std::int64_t{1} << dim);
    EXPECT_EQ(r.sim.total, expected) << "N = " << (1 << dim);
  }
}

TEST(SymbolicVerify, TriangularMatvecAffineDomain) {
  // The strictly lower-triangular domain (j < i) slab-decomposes along i;
  // verify mode asserts the symbolic pipeline — partition stats, mapping,
  // and the simulator — reproduces the dense run under every accounting.
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    PipelineConfig cfg;
    cfg.time_function = IntVec{1, 1};
    cfg.space_mode = SpaceMode::Verify;
    cfg.sim.accounting = acc;
    PipelineResult r = run_pipeline(workloads::triangular_matvec(8), cfg);
    ASSERT_NE(r.space, nullptr);
    EXPECT_FALSE(r.space->is_rectangular());
    EXPECT_EQ(r.space->slab_count(), 7u);  // rows i = 2..8 (i = 1 is empty)
    EXPECT_EQ(r.iteration_count(), 28u);   // 0 + 1 + ... + 7
    EXPECT_TRUE(r.exact_cover);
    EXPECT_TRUE(r.theorem1);
    EXPECT_GT(r.sim.time, 0.0);
  }
}

TEST(SymbolicVerify, SkewedWavefrontAffineDomain) {
  // wavefront3d under the unimodular skew (i,j,k) -> (i,i+j,k): a sheared
  // prism with t in [i+1, i+n].  Π comes from the search on both backends.
  PipelineConfig cfg;
  cfg.space_mode = SpaceMode::Verify;
  PipelineResult r = run_pipeline(workloads::skewed_wavefront3d(4), cfg);
  ASSERT_NE(r.space, nullptr);
  EXPECT_FALSE(r.space->is_rectangular());
  EXPECT_EQ(r.space->slab_count(), 4u);
  EXPECT_EQ(r.iteration_count(), 64u);  // the skew is volume-preserving
  std::vector<IntVec> deps = r.space->dependences();
  std::sort(deps.begin(), deps.end());
  EXPECT_EQ(deps, (std::vector<IntVec>{{0, 0, 1}, {0, 1, 0}, {1, 1, 0}}));
  EXPECT_TRUE(r.exact_cover);
  EXPECT_TRUE(r.theorem1);
}

TEST(SymbolicVerify, AllAccountingsAgree) {
  // Verify mode re-runs the simulator symbolically under the configured
  // accounting; a mismatch in any SimResult field throws.
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    PipelineConfig cfg;
    cfg.time_function = IntVec{1, 1};
    cfg.space_mode = SpaceMode::Verify;
    cfg.sim.accounting = acc;
    PipelineResult r = run_pipeline(workloads::example_l1(), cfg);
    EXPECT_GT(r.sim.time, 0.0);
    EXPECT_EQ(r.sim.steps, 7);
  }
}

}  // namespace
}  // namespace hypart
