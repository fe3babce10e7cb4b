// Shared fixture for the real-execution backend tests: plans a nest the way
// the pipeline does (dependences, Π search, grouping, blocks, TIG) so a
// test can map it onto a cube of any dimension and run it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "mapping/hypercube_map.hpp"
#include "workloads/workloads.hpp"

namespace hypart {

struct RuntimeFixture {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  TimeFunction tf;
  DependenceInfo deps;
  LoopNest nest;

  explicit RuntimeFixture(LoopNest n) : nest(std::move(n)) {
    deps = analyze_dependences(nest);
    IndexSet is(nest);
    q = std::make_unique<ComputationStructure>(is.points(), deps.distance_vectors());
    tf = *search_time_function(*q);
    ps = std::make_unique<ProjectedStructure>(*q, tf);
    grouping = Grouping::compute(*ps);
    partition = Partition::build(*q, grouping);
    tig = TaskInteractionGraph::from_partition(*q, partition, grouping);
  }

  [[nodiscard]] Mapping map(unsigned dim) const { return map_to_hypercube(tig, dim).mapping; }

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> step_range() const {
    std::int64_t lo = 0, hi = 0;
    bool first = true;
    for (PointRef v : q->vertices()) {
      std::int64_t s = tf.step_of(v);
      if (first || s < lo) lo = s;
      if (first || s > hi) hi = s;
      first = false;
    }
    return {lo, hi};
  }
};

/// The nests on which every executor must send exactly the messages and
/// make exactly the halo loads that run_distributed counts.
inline std::vector<LoopNest> parity_nests() {
  return {workloads::matrix_vector(12),   workloads::example_l1(5),
          workloads::sor2d(8, 8),         workloads::matrix_multiplication(4),
          workloads::convolution1d(10, 3), workloads::lu_decomposition(5),
          workloads::triangular_matvec(8), workloads::wavefront3d(4)};
}

}  // namespace hypart
