#include "mapping/tig.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/error.hpp"
#include "dense_index_oracle.hpp"
#include "schedule/hyperplane.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

TEST(TigTest, MeshFactory) {
  TaskInteractionGraph tig = TaskInteractionGraph::mesh(4, 4);
  EXPECT_EQ(tig.vertex_count(), 16u);
  // 4x4 mesh: 2*4*3 = 24 undirected edges.
  EXPECT_EQ(tig.edges().size(), 24u);
  EXPECT_EQ(tig.total_comm(), 24);
  EXPECT_EQ(tig.comm_weight(0, 1), 1);
  EXPECT_EQ(tig.comm_weight(0, 4), 1);
  EXPECT_EQ(tig.comm_weight(0, 5), 0);  // diagonal: no edge
  EXPECT_TRUE(tig.has_coordinates());
  EXPECT_EQ(tig.coordinate_dimensions(), 2u);
  EXPECT_EQ(*tig.coordinates(5), (IntVec{1, 1}));
}

TEST(TigTest, CommAccumulatesAndIsSymmetric) {
  TaskInteractionGraph tig(3);
  tig.add_comm(0, 1, 2);
  tig.add_comm(1, 0, 3);  // same undirected edge
  EXPECT_EQ(tig.comm_weight(0, 1), 5);
  EXPECT_EQ(tig.comm_weight(1, 0), 5);
  EXPECT_EQ(tig.edges().size(), 1u);
  tig.add_comm(2, 2, 7);  // self-communication ignored
  EXPECT_EQ(tig.edges().size(), 1u);
}

TEST(TigTest, ComputeWeights) {
  TaskInteractionGraph tig(3);
  EXPECT_EQ(tig.total_compute(), 3);  // default weight 1
  tig.set_compute_weight(0, 10);
  tig.set_compute_weight(2, 5);
  EXPECT_EQ(tig.total_compute(), 16);
  EXPECT_EQ(tig.compute_weight(1), 1);
}

TEST(TigTest, FromPartitionMatchesStats) {
  auto q = std::make_unique<ComputationStructure>(
      ComputationStructure::from_loop(workloads::example_l1()));
  ProjectedStructure ps(*q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  Partition p = Partition::build(*q, g);
  PartitionStats stats = compute_partition_stats(*q, p);

  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(*q, p, g);
  EXPECT_EQ(tig.vertex_count(), p.block_count());
  EXPECT_EQ(tig.total_comm(), static_cast<std::int64_t>(stats.interblock_arcs));
  EXPECT_EQ(tig.total_compute(), 16);
  EXPECT_TRUE(tig.has_coordinates());
}

/// Per-arc oracle: probe v + d for every vertex and dependence through a
/// hash index and add one unit per interblock arc to a std::map edge.
std::map<std::pair<std::size_t, std::size_t>, std::int64_t> oracle_edges(
    const ComputationStructure& q, const Partition& p) {
  const std::vector<IntVec> verts = q.vertices().to_vectors();
  const auto index = oracle::vertex_index(verts);
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> edges;
  for (std::size_t v = 0; v < q.vertices().size(); ++v)
    for (const IntVec& d : q.dependences()) {
      auto it = index.find(add(verts[v], d));
      if (it == index.end()) continue;
      std::size_t bs = p.block_of(v), bd = p.block_of(it->second);
      if (bs != bd) ++edges[std::minmax(bs, bd)];
    }
  return edges;
}

TEST(TigTest, FromPartitionMatchesPerArcOracle) {
  for (const LoopNest& nest :
       {workloads::example_l1(6), workloads::matrix_vector(8), workloads::matrix_multiplication(4),
        workloads::convolution2d(5, 2), workloads::wavefront3d(5)}) {
    auto q = std::make_unique<ComputationStructure>(ComputationStructure::from_loop(nest));
    std::optional<TimeFunction> tf = search_time_function(*q);
    ASSERT_TRUE(tf) << nest.name();
    ProjectedStructure ps(*q, *tf);
    Grouping g = Grouping::compute(ps);
    Partition p = Partition::build(*q, g);

    TaskInteractionGraph tig = TaskInteractionGraph::from_partition(*q, p, g);
    EXPECT_EQ(tig.edges(), oracle_edges(*q, p)) << nest.name();
    ASSERT_EQ(tig.vertex_count(), p.block_count());
    for (std::size_t b = 0; b < p.block_count(); ++b)
      EXPECT_EQ(tig.compute_weight(b), static_cast<std::int64_t>(p.blocks()[b].iterations.size()))
          << nest.name() << " block " << b;
  }
}

TEST(TigTest, FromPartitionRejectsMismatchedGrouping) {
  auto q = std::make_unique<ComputationStructure>(
      ComputationStructure::from_loop(workloads::example_l1()));
  ProjectedStructure ps(*q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  // One block per vertex: more blocks than the grouping has groups.
  std::vector<std::size_t> labels(q->vertices().size());
  for (std::size_t v = 0; v < labels.size(); ++v) labels[v] = v;
  Partition p = Partition::from_labels(*q, labels);
  ASSERT_GT(p.block_count(), g.group_count());
  try {
    static_cast<void>(TaskInteractionGraph::from_partition(*q, p, g));
    FAIL() << "expected a config error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
  }
}

TEST(TigTest, BlocksPerProc) {
  Mapping m;
  m.processor_count = 2;
  m.block_to_proc = {0, 1, 0, 1, 1};
  auto per = m.blocks_per_proc();
  ASSERT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(per[1], (std::vector<std::size_t>{1, 3, 4}));
}

TEST(TigTest, EvaluateMappingMetrics) {
  TaskInteractionGraph tig = TaskInteractionGraph::mesh(2, 2);  // square, 4 edges
  Hypercube cube(2);

  Mapping identity;
  identity.processor_count = 4;
  identity.block_to_proc = {0, 1, 2, 3};
  MappingMetrics m = evaluate_mapping(tig, identity, cube);
  // Edges: (0,1) procs 0-1 hop 1; (0,2) procs 0-2 hop 1; (1,3) 1-3 hop 1;
  // (2,3) 2-3 hop 1. Total cost 4, all cut.
  EXPECT_EQ(m.total_comm_cost, 4);
  EXPECT_EQ(m.cut_comm_volume, 4);
  EXPECT_DOUBLE_EQ(m.avg_hops_weighted, 1.0);
  EXPECT_EQ(m.used_processors, 4u);
  EXPECT_EQ(m.max_proc_compute, 1);
  EXPECT_DOUBLE_EQ(m.compute_imbalance, 1.0);
}

TEST(TigTest, EvaluateMappingAllOnOneProc) {
  TaskInteractionGraph tig = TaskInteractionGraph::mesh(2, 2);
  Hypercube cube(2);
  Mapping all;
  all.processor_count = 4;
  all.block_to_proc = {0, 0, 0, 0};
  MappingMetrics m = evaluate_mapping(tig, all, cube);
  EXPECT_EQ(m.total_comm_cost, 0);
  EXPECT_EQ(m.cut_comm_volume, 0);
  EXPECT_EQ(m.used_processors, 1u);
  EXPECT_EQ(m.max_proc_compute, 4);
  EXPECT_DOUBLE_EQ(m.compute_imbalance, 4.0);
}

TEST(TigTest, EvaluateMappingValidation) {
  TaskInteractionGraph tig = TaskInteractionGraph::mesh(2, 2);
  Hypercube small(1);
  Mapping m;
  m.processor_count = 4;
  m.block_to_proc = {0, 1, 2, 3};
  EXPECT_THROW(evaluate_mapping(tig, m, small), std::invalid_argument);
  Mapping wrong_size;
  wrong_size.processor_count = 4;
  wrong_size.block_to_proc = {0, 1};
  EXPECT_THROW(evaluate_mapping(tig, wrong_size, Hypercube(2)), std::invalid_argument);
}

TEST(TigTest, AddCommValidation) {
  TaskInteractionGraph tig(2);
  EXPECT_THROW(tig.add_comm(0, 5, 1), std::out_of_range);
}

}  // namespace
}  // namespace hypart
