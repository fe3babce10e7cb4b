#include "exec/parallel_runtime.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "exec_fixture.hpp"

namespace hypart {
namespace {

TEST(ParallelRuntime, MatvecThreadsMatchSequential) {
  RuntimeFixture f(workloads::matrix_vector(12));
  ArrayStore seq = run_sequential(f.nest);
  Mapping map = map_to_hypercube(f.tig, 2).mapping;
  ParallelRunResult par = run_parallel(f.nest, *f.q, f.tf, f.partition, map, f.deps);
  EquivalenceReport rep = compare_stores(seq, par.written);
  EXPECT_TRUE(rep.equal) << rep.first_mismatch;
  EXPECT_EQ(par.stats.threads, 4u);
  EXPECT_GT(par.stats.messages_sent, 0);
}

TEST(ParallelRuntime, MessageCountMatchesInterpreter) {
  for (LoopNest& nest : parity_nests()) {
    RuntimeFixture f(std::move(nest));
    for (unsigned dim : {1u, 2u}) {
      SCOPED_TRACE(f.nest.name() + " dim " + std::to_string(dim));
      Mapping map = f.map(dim);
      ParallelRunResult par = run_parallel(f.nest, *f.q, f.tf, f.partition, map, f.deps);
      DistributedResult sim = run_distributed(f.nest, *f.q, f.tf, f.partition, map, f.deps);
      EXPECT_EQ(par.stats.messages_sent, sim.stats.value_messages);
      EXPECT_EQ(par.stats.halo_loads, sim.stats.halo_loads);
    }
  }
}

TEST(ParallelRuntime, SingleThreadDegenerate) {
  RuntimeFixture f(workloads::example_l1(4));
  Mapping one;
  one.processor_count = 1;
  one.block_to_proc.assign(f.partition.block_count(), 0);
  ParallelRunResult par = run_parallel(f.nest, *f.q, f.tf, f.partition, one, f.deps);
  EXPECT_EQ(par.stats.messages_sent, 0);
  ArrayStore seq = run_sequential(f.nest);
  EXPECT_TRUE(compare_stores(seq, par.written).equal);
}

TEST(ParallelRuntime, NonExecutableThrows) {
  LoopNest plain = LoopNestBuilder("p")
                       .loop("i", 0, 3)
                       .statement("S")
                       .write("A", {idx(0)})
                       .read("A", {idx(0) - 1})
                       .build();
  DependenceInfo deps = analyze_dependences(plain);
  IndexSet is(plain);
  ComputationStructure q(is.points(), deps.distance_vectors());
  TimeFunction tf{{1}};
  ProjectedStructure ps(q, tf);
  Grouping g = Grouping::compute(ps);
  Partition part = Partition::build(q, g);
  Mapping map;
  map.processor_count = 1;
  map.block_to_proc.assign(part.block_count(), 0);
  EXPECT_THROW(run_parallel(plain, q, tf, part, map, deps), Error);
}

TEST(ParallelRuntime, RepeatedRunsDeterministicUnderScheduling) {
  // Thread interleavings vary between runs; results must not.
  RuntimeFixture f(workloads::matrix_multiplication(5));
  Mapping map = map_to_hypercube(f.tig, 3).mapping;
  ArrayStore seq = run_sequential(f.nest);
  for (int run = 0; run < 8; ++run) {
    ParallelRunResult par = run_parallel(f.nest, *f.q, f.tf, f.partition, map, f.deps);
    EquivalenceReport rep = compare_stores(seq, par.written);
    ASSERT_TRUE(rep.equal) << "run " << run << ": " << rep.first_mismatch;
  }
}

class ParallelEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelEquivalenceProperty, ThreadsMatchSequential) {
  auto [which, dim] = GetParam();
  LoopNest nest = [&]() -> LoopNest {
    switch (which) {
      case 0: return workloads::example_l1(6);
      case 1: return workloads::matrix_vector(8);
      case 2: return workloads::matrix_multiplication(4);
      case 3: return workloads::sor2d(6, 7);
      case 4: return workloads::convolution1d(10, 5);
      case 5: return workloads::wavefront3d(4);
      default: return workloads::dft_horner(8);
    }
  }();
  RuntimeFixture f(std::move(nest));
  Mapping map = map_to_hypercube(f.tig, dim).mapping;
  ArrayStore seq = run_sequential(f.nest);
  ParallelRunResult par = run_parallel(f.nest, *f.q, f.tf, f.partition, map, f.deps);
  EquivalenceReport rep = compare_stores(seq, par.written);
  EXPECT_TRUE(rep.equal) << f.nest.name() << " dim=" << dim << ": " << rep.first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(WorkloadsAndDims, ParallelEquivalenceProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace hypart
