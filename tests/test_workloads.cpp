#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/error.hpp"
#include "exec/interpreter.hpp"
#include "graph/comp_structure.hpp"
#include "mapping/hypercube_map.hpp"
#include "partition/checkers.hpp"
#include "schedule/hyperplane.hpp"

namespace hypart {
namespace {

TEST(Workloads, L1DefaultMatchesPaperDomain) {
  LoopNest l1 = workloads::example_l1();
  EXPECT_EQ(l1.name(), "L1");
  EXPECT_EQ(l1.depth(), 2u);
  IndexSet is(l1);
  EXPECT_EQ(is.size(), 16u);
}

TEST(Workloads, L1Parameterized) {
  IndexSet is(workloads::example_l1(7));
  EXPECT_EQ(is.size(), 64u);
}

TEST(Workloads, MatmulDomain) {
  IndexSet is(workloads::matrix_multiplication(3));
  EXPECT_EQ(is.size(), 64u);
  EXPECT_EQ(workloads::matrix_multiplication(3).body_flops(), 2);
}

TEST(Workloads, MatvecDomainOneBased) {
  IndexSet is(workloads::matrix_vector(10));
  EXPECT_EQ(is.size(), 100u);
  EXPECT_TRUE(is.contains({1, 1}));
  EXPECT_FALSE(is.contains({0, 0}));
}

TEST(Workloads, AllUniformTimeFunctionValid) {
  // Π = (1,...,1) must be a valid hyperplane schedule for every workload,
  // as the paper assumes.
  for (const LoopNest& nest :
       {workloads::example_l1(), workloads::matrix_multiplication(2), workloads::matrix_vector(4),
        workloads::convolution1d(5, 3), workloads::transitive_closure(3),
        workloads::sor2d(3, 3), workloads::wavefront3d(3),
        workloads::strided_recurrence(6, 2)}) {
    ComputationStructure q = ComputationStructure::from_loop(nest);
    EXPECT_TRUE(
        is_valid_time_function(TimeFunction{IntVec(nest.depth(), 1)}, q.dependences()))
        << nest.name();
  }
}

TEST(Workloads, DftHornerMatchesMatvecStructure) {
  // Section I lists the DFT among the kernels whose index sets cannot be
  // partitioned independently; in Horner form its dependence set is the
  // matvec pair {(0,1), (1,0)}.
  ComputationStructure q = ComputationStructure::from_loop(workloads::dft_horner(8));
  std::set<IntVec> deps(q.dependences().begin(), q.dependences().end());
  EXPECT_EQ(deps, (std::set<IntVec>{{0, 1}, {1, 0}}));
  EXPECT_EQ(q.vertices().size(), 64u);
}

TEST(Workloads, DftHornerExecutes) {
  // F[k] after the loop = ((f0*w + x[n-1])*w + x[n-2])*w ... Horner over
  // the reversed input; check k = 0 against a direct evaluation.
  const std::int64_t n = 4;
  ArrayStore out = run_sequential(workloads::dft_horner(n));
  double f = default_init("F", {0});
  double w = default_init("w", {0});
  for (std::int64_t t = 0; t < n; ++t) f = f * w + default_init("x", {n - 1 - t});
  ASSERT_TRUE(out.load("F", {0}).has_value());
  EXPECT_NEAR(*out.load("F", {0}), f, 1e-9);
}

TEST(Workloads, Convolution2dFourDeepBetaThree) {
  // The 4-deep nest: six dependences spanning all dimensions; under
  // Π = (1,1,1,1) the projected rank is 3, so the grouping phase selects
  // one grouping vector AND two auxiliary vectors — the deepest regime.
  ComputationStructure q = ComputationStructure::from_loop(workloads::convolution2d(3, 2));
  EXPECT_EQ(q.dimension(), 4u);
  std::set<IntVec> deps(q.dependences().begin(), q.dependences().end());
  EXPECT_EQ(deps, (std::set<IntVec>{{0, 0, 1, 0},
                                    {0, 0, 0, 1},
                                    {1, 0, 1, 0},
                                    {0, 1, 0, 1},
                                    {1, 0, 0, 0},
                                    {0, 1, 0, 0}}));
  TimeFunction tf{{1, 1, 1, 1}};
  ASSERT_TRUE(is_valid_time_function(tf, q.dependences()));
  ProjectedStructure ps(q, tf);
  EXPECT_EQ(ps.projected_rank(), 3u);
  Grouping g = Grouping::compute(ps);
  EXPECT_EQ(g.auxiliary_vector_indices().size(), 2u);
  Partition p = Partition::build(q, g);
  EXPECT_TRUE(check_exact_cover(q, p));
  EXPECT_TRUE(check_theorem1(q, tf, p));
  EXPECT_TRUE(check_theorem2(g).holds);
  LemmaReport lr = check_lemmas(g);
  EXPECT_TRUE(lr.lemma2_holds);
  EXPECT_TRUE(lr.lemma3_holds);
}

TEST(Workloads, Convolution2dExecutesCorrectly) {
  const std::int64_t n = 3, kk = 2;
  ArrayStore out = run_sequential(workloads::convolution2d(n, kk));
  // y[1,1] = init + sum_{k,l} h[k,l]*x[1-k,1-l].
  double expect = default_init("y", {1, 1});
  for (std::int64_t k = 0; k < kk; ++k)
    for (std::int64_t l = 0; l < kk; ++l)
      expect += default_init("h", {k, l}) * default_init("x", {1 - k, 1 - l});
  ASSERT_TRUE(out.load("y", {1, 1}).has_value());
  EXPECT_NEAR(*out.load("y", {1, 1}), expect, 1e-9);
}

TEST(Workloads, TriangularMatvecOnTriangularDomain) {
  const std::int64_t n = 8;
  LoopNest tri = workloads::triangular_matvec(n);
  EXPECT_FALSE(tri.is_rectangular());
  IndexSet is(tri);
  EXPECT_EQ(is.size(), static_cast<std::uint64_t>(n * (n - 1) / 2));

  ComputationStructure q = ComputationStructure::from_loop(tri);
  std::set<IntVec> deps(q.dependences().begin(), q.dependences().end());
  EXPECT_EQ(deps, (std::set<IntVec>{{1, 0}, {0, 1}}));
  // The full pipeline handles the triangular domain.
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  Partition p = Partition::build(q, g);
  EXPECT_TRUE(check_exact_cover(q, p));
  EXPECT_TRUE(check_theorem1(q, TimeFunction{{1, 1}}, p));
}

TEST(Workloads, TrueForwardSubstitutionRejectedAsNonUniform) {
  // x[i] -= L[i,j]*x[j] reads x at a non-constant distance; the analyzer
  // must refuse it rather than fabricate a dependence.
  LoopNest solve = LoopNestBuilder("solve")
                       .loop("i", 1, 6)
                       .loop("j", 1, idx(0) - 1)
                       .assign("S", "x", {idx(0)},
                               ref("x", {idx(0)}) - ref("L", {idx(0), idx(1)}) *
                                                        ref("x", {idx(1)}))
                       .build();
  EXPECT_THROW(analyze_dependences(solve), NonUniformDependenceError);
}

TEST(Workloads, Convolution2dDistributedExecutionRefused) {
  // y[i,j]'s updates come from the whole 2-D (k,l) sub-lattice; the
  // hyperplane schedule runs some of them concurrently, so chain-ordered
  // distributed execution would lose updates.  The executors must detect
  // this and refuse — the cost-model pipeline above remains valid.
  LoopNest nest = workloads::convolution2d(3, 2);
  DependenceInfo deps = analyze_dependences(nest);
  IndexSet is(nest);
  ComputationStructure q(is.points(), deps.distance_vectors());
  TimeFunction tf{{1, 1, 1, 1}};
  ProjectedStructure ps(q, tf);
  Grouping g = Grouping::compute(ps);
  Partition part = Partition::build(q, g);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, part, g);
  Mapping map = map_to_hypercube(tig, 2).mapping;
  // Sequential execution is still well-defined...
  ArrayStore seq = run_sequential(nest);
  EXPECT_GT(seq.total_elements(), 0u);
  // ...but distributed execution is refused up front.
  EXPECT_THROW(static_cast<void>(run_distributed(nest, q, tf, part, map, deps)), Error);
}

TEST(Workloads, TransitiveClosureDeps) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::transitive_closure(3));
  EXPECT_EQ(q.dependences().size(), 3u);
  EXPECT_EQ(q.dimension(), 3u);
}

TEST(Workloads, AllStructuresAcyclic) {
  for (const LoopNest& nest :
       {workloads::example_l1(), workloads::matrix_vector(4), workloads::sor2d(3, 4),
        workloads::convolution1d(5, 3), workloads::strided_recurrence(5, 2)}) {
    EXPECT_TRUE(ComputationStructure::from_loop(nest).is_acyclic()) << nest.name();
  }
}

TEST(Workloads, FlopCountsPositive) {
  for (const LoopNest& nest :
       {workloads::example_l1(), workloads::matrix_multiplication(2), workloads::matrix_vector(3),
        workloads::convolution1d(4, 2), workloads::transitive_closure(2), workloads::sor2d(2, 2),
        workloads::wavefront3d(2), workloads::strided_recurrence(4, 2)}) {
    EXPECT_GT(nest.body_flops(), 0) << nest.name();
  }
}

}  // namespace
}  // namespace hypart
