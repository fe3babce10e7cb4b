#include "exec/interpreter.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/error.hpp"
#include "mapping/baseline_map.hpp"
#include "mapping/hypercube_map.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

TEST(Sequential, MatvecMatchesDirectComputation) {
  const std::int64_t m = 4;
  ArrayStore result = run_sequential(workloads::matrix_vector(m));
  // y[i] should equal init(y,[i]) + sum_j init(A,[i,j]) * init(x,[j]).
  for (std::int64_t i = 1; i <= m; ++i) {
    double expect = default_init("y", {i});
    for (std::int64_t j = 1; j <= m; ++j)
      expect += default_init("A", {i, j}) * default_init("x", {j});
    std::optional<double> got = result.load("y", {i});
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(*got, expect, 1e-9);
  }
}

TEST(Sequential, MatmulMatchesDirectComputation) {
  const std::int64_t n = 2;  // 3x3x3
  ArrayStore result = run_sequential(workloads::matrix_multiplication(n));
  for (std::int64_t i = 0; i <= n; ++i) {
    for (std::int64_t j = 0; j <= n; ++j) {
      double expect = default_init("C", {i, j});
      for (std::int64_t k = 0; k <= n; ++k)
        expect += default_init("A", {i, k}) * default_init("B", {k, j});
      std::optional<double> got = result.load("C", {i, j});
      ASSERT_TRUE(got.has_value());
      EXPECT_NEAR(*got, expect, 1e-9);
    }
  }
}

TEST(Sequential, Sor2dRecurrenceOrder) {
  // A[1,1] depends on boundary inits; A[2,2] on updated neighbors.
  ArrayStore result = run_sequential(workloads::sor2d(2, 2));
  double a11 = (default_init("A", {0, 1}) + default_init("A", {1, 0})) * 0.5 + 0.125;
  ASSERT_TRUE(result.load("A", {1, 1}).has_value());
  EXPECT_NEAR(*result.load("A", {1, 1}), a11, 1e-12);
  double a12 = (default_init("A", {0, 2}) + a11) * 0.5 + 0.125;
  EXPECT_NEAR(*result.load("A", {1, 2}), a12, 1e-12);
}

TEST(Sequential, NonExecutableNestThrows) {
  LoopNest nest = LoopNestBuilder("plain")
                      .loop("i", 0, 3)
                      .statement("S")
                      .write("A", {idx(0)})
                      .read("A", {idx(0) - 1})
                      .build();
  EXPECT_THROW(run_sequential(nest), Error);
}

TEST(ArrayStoreTest, Basics) {
  ArrayStore s;
  EXPECT_FALSE(s.load("A", {0}).has_value());
  s.store("A", {0}, 1.5);
  s.store("A", {1}, 2.5);
  s.store("B", {0, 0}, 3.5);
  EXPECT_DOUBLE_EQ(*s.load("A", {0}), 1.5);
  EXPECT_EQ(s.total_elements(), 3u);
  s.store("A", {0}, 9.0);  // overwrite
  EXPECT_DOUBLE_EQ(*s.load("A", {0}), 9.0);
  EXPECT_EQ(s.total_elements(), 3u);
}

TEST(CompareStores, DetectsMismatchAndExtras) {
  ArrayStore a, b;
  a.store("A", {0}, 1.0);
  b.store("A", {0}, 1.0);
  EXPECT_TRUE(compare_stores(a, b).equal);
  b.store("A", {0}, 1.1);
  EquivalenceReport rep = compare_stores(a, b);
  EXPECT_FALSE(rep.equal);
  EXPECT_FALSE(rep.first_mismatch.empty());
  // Extra write detection.
  ArrayStore c;
  c.store("A", {0}, 1.0);
  c.store("A", {5}, 7.0);
  EXPECT_FALSE(compare_stores(a, c).equal);
  // Missing element.
  ArrayStore d;
  EXPECT_FALSE(compare_stores(a, d).equal);
}

struct DistFixture {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  TimeFunction tf;
  DependenceInfo deps;
  LoopNest nest;

  explicit DistFixture(LoopNest n, IntVec pi) : nest(std::move(n)) {
    deps = analyze_dependences(nest);
    IndexSet is(nest);
    q = std::make_unique<ComputationStructure>(is.points(), deps.distance_vectors());
    tf = TimeFunction{std::move(pi)};
    ps = std::make_unique<ProjectedStructure>(*q, tf);
    grouping = Grouping::compute(*ps);
    partition = Partition::build(*q, grouping);
    tig = TaskInteractionGraph::from_partition(*q, partition, grouping);
  }
};

TEST(Distributed, MatvecEqualsSequentialOnHypercube) {
  DistFixture f(workloads::matrix_vector(8), {1, 1});
  ArrayStore seq = run_sequential(f.nest);
  for (unsigned dim : {0u, 1u, 2u, 3u}) {
    Mapping map = map_to_hypercube(f.tig, dim).mapping;
    DistributedResult dist =
        run_distributed(f.nest, *f.q, f.tf, f.partition, map, f.deps);
    EquivalenceReport rep = compare_stores(seq, dist.written);
    EXPECT_TRUE(rep.equal) << "dim=" << dim << ": " << rep.first_mismatch;
  }
}

TEST(Distributed, MessagesOnlyWhenMultipleProcessors) {
  DistFixture f(workloads::matrix_vector(8), {1, 1});
  Mapping one = map_to_hypercube(f.tig, 0).mapping;
  DistributedResult r0 = run_distributed(f.nest, *f.q, f.tf, f.partition, one, f.deps);
  EXPECT_EQ(r0.stats.value_messages, 0);

  Mapping four = map_to_hypercube(f.tig, 2).mapping;
  DistributedResult r2 = run_distributed(f.nest, *f.q, f.tf, f.partition, four, f.deps);
  EXPECT_GT(r2.stats.value_messages, 0);
}

TEST(Distributed, MessageCountMatchesInterblockInterprocessorArcs) {
  // Every dependence arc crossing processors sends exactly one value.
  DistFixture f(workloads::matrix_vector(8), {1, 1});
  Mapping map = map_to_hypercube(f.tig, 2).mapping;
  DistributedResult dist = run_distributed(f.nest, *f.q, f.tf, f.partition, map, f.deps);

  std::int64_t crossing = 0;
  f.q->for_each_arc([&](const IntVec& a, const IntVec& b, std::size_t) {
    ProcId pa = map.block_to_proc[f.partition.block_of(f.q->id_of(a))];
    ProcId pb = map.block_to_proc[f.partition.block_of(f.q->id_of(b))];
    if (pa != pb) ++crossing;
  });
  EXPECT_EQ(dist.stats.value_messages, crossing);
}

TEST(Distributed, CorrectEvenUnderAdversarialMappings) {
  // Correctness must not depend on the mapping quality: random and
  // round-robin placements still produce sequential-equal results.
  DistFixture f(workloads::sor2d(6, 7), {1, 1});
  ArrayStore seq = run_sequential(f.nest);
  for (int variant : {0, 1, 2}) {
    Mapping map;
    if (variant == 0) map = map_random(f.tig, 8, 99);
    if (variant == 1) map = map_round_robin(f.tig, 5);
    if (variant == 2) map = map_contiguous(f.tig, 3);
    DistributedResult dist = run_distributed(f.nest, *f.q, f.tf, f.partition, map, f.deps);
    EquivalenceReport rep = compare_stores(seq, dist.written);
    EXPECT_TRUE(rep.equal) << rep.first_mismatch;
  }
}

TEST(Distributed, StatsConservation) {
  DistFixture f(workloads::example_l1(5), {1, 1});
  Mapping map = map_to_hypercube(f.tig, 1).mapping;
  DistributedResult dist = run_distributed(f.nest, *f.q, f.tf, f.partition, map, f.deps);
  std::int64_t total = 0;
  for (std::int64_t c : dist.stats.per_proc_iterations) total += c;
  EXPECT_EQ(total, static_cast<std::int64_t>(f.q->vertices().size()));
  EXPECT_EQ(dist.stats.steps, 11);  // hyperplanes 0..10 on the 6x6 domain
}

class DistributedEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(DistributedEquivalenceProperty, AllWorkloadsAllMachineSizes) {
  auto [which, dim] = GetParam();
  LoopNest nest = [&]() -> LoopNest {
    switch (which) {
      case 0: return workloads::example_l1(5);
      case 1: return workloads::matrix_vector(6);
      case 2: return workloads::matrix_multiplication(3);
      case 3: return workloads::sor2d(5, 6);
      case 4: return workloads::convolution1d(8, 4);
      case 5: return workloads::wavefront3d(4);
      case 6: return workloads::transitive_closure(4);
      default: return workloads::strided_recurrence(6, 2);
    }
  }();
  DependenceInfo deps = analyze_dependences(nest);
  IndexSet is(nest);
  ComputationStructure q(is.points(), deps.distance_vectors());
  auto tf = search_time_function(q);
  ASSERT_TRUE(tf.has_value());
  ProjectedStructure ps(q, *tf);
  Grouping g = Grouping::compute(ps);
  Partition part = Partition::build(q, g);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, part, g);
  Mapping map = map_to_hypercube(tig, dim).mapping;

  ArrayStore seq = run_sequential(nest);
  DistributedResult dist = run_distributed(nest, q, *tf, part, map, deps);
  EquivalenceReport rep = compare_stores(seq, dist.written);
  EXPECT_TRUE(rep.equal) << nest.name() << " dim=" << dim << ": " << rep.first_mismatch;
  EXPECT_GT(rep.compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkloadsAndDims, DistributedEquivalenceProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                                            ::testing::Values(0u, 1u, 2u, 3u)));

}  // namespace
}  // namespace hypart
