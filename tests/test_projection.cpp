#include "partition/projection.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "dense_index_oracle.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

ComputationStructure l1() { return ComputationStructure::from_loop(workloads::example_l1()); }
ComputationStructure mm(std::int64_t n = 3) {
  return ComputationStructure::from_loop(workloads::matrix_multiplication(n));
}

TEST(ProjectionFrame, ProjectMatchesDefinition3) {
  // j^p = j - (j·Π / Π·Π) Π, scaled by s = Π·Π.
  const ProjectionFrame frame({}, TimeFunction{{1, 1}});
  // j = (3,0): j·Π = 3, j^p = (3,0) - 3/2(1,1) = (3/2, -3/2); scaled: (3,-3).
  EXPECT_EQ(frame.project(IntVec{3, 0}), (IntVec{3, -3}));
  // j = (2,2) on the line of the origin: j^p = 0.
  EXPECT_EQ(frame.project(IntVec{2, 2}), (IntVec{0, 0}));
}

TEST(ProjectionFrame, ProjectIsOrthogonalToPi) {
  TimeFunction tf{{1, 2, 3}};
  IntVec p = ProjectionFrame({}, tf).project(IntVec{4, -1, 7});
  EXPECT_EQ(dot(p, tf.pi), 0);
}

TEST(ProjectionFrame, LineDirectionStrideAndReplication) {
  // Π = (2, -4): s = 20, u = Π/2 keeps Π's sign, σ = Π·u = 10.
  const ProjectionFrame frame({{1, 0}, {0, -1}}, TimeFunction{{2, -4}});
  EXPECT_EQ(frame.scale(), 20);
  EXPECT_EQ(frame.line_direction(), (IntVec{1, -2}));
  EXPECT_EQ(frame.step_stride(), 10);
  // d = (1,0): ĵ = 20·(1,0) - 2·(2,-4) = (16, 8), r = 20/gcd(20, 8) = 5.
  EXPECT_EQ(frame.projected_deps_scaled()[0], (IntVec{16, 8}));
  EXPECT_EQ(frame.replication_factor(0), 5);
  EXPECT_EQ(frame.projected_rank(), 1u);
}

TEST(ProjectedStructure, L1SevenPoints) {
  // Paper: "We get seven projected points" for L1 with Π = (1,1).
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  EXPECT_EQ(ps.scale(), 2);
  EXPECT_EQ(ps.point_count(), 7u);

  // The paper's V^p (x2 scaling): (-3,3), (-2,2), (-1,1), (0,0), (1,-1),
  // (2,-2), (3,-3).
  std::set<IntVec> expected = {{-3, 3}, {-2, 2}, {-1, 1}, {0, 0}, {1, -1}, {2, -2}, {3, -3}};
  std::set<IntVec> actual(ps.points().begin(), ps.points().end());
  EXPECT_EQ(actual, expected);
}

TEST(ProjectedStructure, L1RationalCoordinates) {
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  // Point (-3,3) scaled is (-3/2, 3/2) in true coordinates.
  std::optional<std::size_t> id = ps.find_point({-3, 3});
  ASSERT_TRUE(id.has_value());
  RatVec r = ps.point_rational(*id);
  EXPECT_EQ(r[0], Rational(-3, 2));
  EXPECT_EQ(r[1], Rational(3, 2));
}

TEST(ProjectedStructure, L1ProjectedDeps) {
  // d1=(0,1) -> (-1/2,1/2); d2=(1,1) -> 0; d3=(1,0) -> (1/2,-1/2).
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  const std::vector<IntVec>& deps = q.dependences();
  ASSERT_EQ(deps.size(), 3u);
  for (std::size_t k = 0; k < deps.size(); ++k) {
    const IntVec& d = deps[k];
    const IntVec& dp = ps.projected_deps_scaled()[k];
    if (d == IntVec{0, 1}) {
      EXPECT_EQ(dp, (IntVec{-1, 1}));
    }
    if (d == IntVec{1, 1}) {
      EXPECT_EQ(dp, (IntVec{0, 0}));
    }
    if (d == IntVec{1, 0}) {
      EXPECT_EQ(dp, (IntVec{1, -1}));
    }
  }
}

TEST(ProjectedStructure, L1ReplicationFactors) {
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  for (std::size_t k = 0; k < q.dependences().size(); ++k) {
    if (is_zero(ps.projected_deps_scaled()[k]))
      EXPECT_EQ(ps.replication_factor(k), 1);
    else
      EXPECT_EQ(ps.replication_factor(k), 2);
  }
}

TEST(ProjectedStructure, L1LinePopulations) {
  // Line populations on the 4x4 domain: 1,2,3,4,3,2,1.
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  std::multiset<std::size_t> pops;
  for (std::size_t i = 0; i < ps.point_count(); ++i) pops.insert(ps.line_population(i));
  EXPECT_EQ(pops, (std::multiset<std::size_t>{1, 1, 2, 2, 3, 3, 4}));
  // Populations sum to |J^n|.
  std::size_t total = 0;
  for (std::size_t i = 0; i < ps.point_count(); ++i) total += ps.line_population(i);
  EXPECT_EQ(total, 16u);
}

TEST(ProjectedStructure, Matmul37Points) {
  // Paper Fig. 5: "There are 37 projected points".
  ComputationStructure q = mm();
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  EXPECT_EQ(ps.scale(), 3);
  EXPECT_EQ(ps.point_count(), 37u);
}

TEST(ProjectedStructure, MatmulProjectedDeps) {
  // D^p = {(-1/3,2/3,-1/3), (2/3,-1/3,-1/3), (-1/3,-1/3,2/3)} (Fig. 5).
  ComputationStructure q = mm();
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  std::set<IntVec> expected = {{-1, 2, -1}, {2, -1, -1}, {-1, -1, 2}};
  std::set<IntVec> actual(ps.projected_deps_scaled().begin(), ps.projected_deps_scaled().end());
  EXPECT_EQ(actual, expected);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(ps.replication_factor(k), 3);
}

TEST(ProjectedStructure, MatmulBeta2) {
  // rank(mat(D^p)) = 2 (paper's grouping-phase comment).
  ComputationStructure q = mm();
  ProjectedStructure ps(q, TimeFunction{{1, 1, 1}});
  EXPECT_EQ(ps.projected_rank(), 2u);
}

TEST(ProjectedStructure, PointOfRoundTrips) {
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  for (PointRef v : q.vertices()) {
    std::size_t id = ps.point_of(v);
    EXPECT_EQ(ps.points()[id], ps.frame().project(v));
  }
}

TEST(ProjectedStructure, InvalidTimeFunctionRejected) {
  ComputationStructure q = l1();
  EXPECT_THROW(ProjectedStructure(q, TimeFunction{{1, 0}}), std::invalid_argument);
  EXPECT_THROW(ProjectedStructure(q, TimeFunction{{1, 1, 1}}), std::invalid_argument);
}

TEST(ProjectedStructure, DigraphArcsRespectDeps) {
  ComputationStructure q = l1();
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Digraph g = ps.to_digraph();
  EXPECT_EQ(g.vertex_count(), 7u);
  // The 1-D projected structure is a path: 6 forward + 6 backward relations
  // from the two nonzero projected deps.
  EXPECT_EQ(g.edge_count(), 12u);
}

TEST(ProjectedStructure, MatvecOneDimensional) {
  // Section IV: 2M-1 projected points for the M x M matvec.
  const std::int64_t m = 6;
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_vector(m));
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  EXPECT_EQ(ps.point_count(), static_cast<std::size_t>(2 * m - 1));
}

TEST(ProjectedStructure, MatchesMapOracleOnRandomPointSets) {
  // Points, populations, representatives and vertex -> point ids against
  // the ordered-map projection; find_point against the oracle's points;
  // the projected arc table against brute-force find_point(add(...)).
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 200; ++trial) {
    const oracle::RandomStructure rs = oracle::random_structure(rng, trial, 4);
    const ComputationStructure q(rs.verts, rs.deps);
    const ProjectedStructure ps(q, rs.tf);
    const oracle::Projection want = oracle::project(q, rs.tf);
    ASSERT_EQ(ps.points(), want.points) << "trial " << trial;
    for (std::size_t i = 0; i < ps.point_count(); ++i) {
      EXPECT_EQ(ps.line_population(i), want.populations[i]);
      EXPECT_EQ(ps.line_representative(i), want.representatives[i]);
      EXPECT_EQ(ps.find_point(want.points[i]), std::optional<std::size_t>(i));
    }
    ASSERT_EQ(ps.vertex_points().size(), want.vertex_points.size());
    for (std::size_t v = 0; v < want.vertex_points.size(); ++v) {
      EXPECT_EQ(ps.vertex_points()[v], want.vertex_points[v]) << "trial " << trial;
      EXPECT_EQ(ps.point_of(q.vertices()[v]), want.vertex_points[v]);
    }
    const std::set<IntVec> present(want.points.begin(), want.points.end());
    for (std::size_t i = 0; i < ps.point_count(); ++i)
      for (std::size_t k = 0; k < ps.projected_deps_scaled().size(); ++k) {
        const IntVec target = add(ps.points()[i], ps.projected_deps_scaled()[k]);
        ASSERT_EQ(ps.arc_target(i, k), ps.find_point(target)) << "trial " << trial;
        EXPECT_EQ(ps.arc_target(i, k).has_value(), present.contains(target));
      }
    // Misses: points shifted off V^p.
    for (const IntVec& p : want.points) {
      IntVec off = p;
      off.front() += 1;
      EXPECT_EQ(ps.find_point(off).has_value(), present.contains(off));
    }
  }
}

TEST(ProjectedStructure, KeysTooSpreadToPackStillSortAndGroup) {
  // Coordinates near ±2^40 in 3-D: the projected keys' box has more than
  // 2^64 cells, so the lines are sorted by comparing keys in place.
  constexpr std::int64_t kFar = std::int64_t{1} << 40;
  std::vector<IntVec> verts;
  for (std::int64_t a : {-kFar, std::int64_t{0}, kFar})
    for (std::int64_t b : {-kFar, std::int64_t{3}, kFar})
      for (std::int64_t c = 0; c < 3; ++c) verts.push_back({a + c, b + c, -a + c});
  const ComputationStructure q(verts, {{1, 1, 1}, {1, 0, 0}});
  const TimeFunction tf{{1, 1, 1}};
  const ProjectedStructure ps(q, tf);
  const oracle::Projection want = oracle::project(q, tf);
  ASSERT_EQ(ps.points(), want.points);
  EXPECT_EQ(ps.point_count(), 9u);
  for (std::size_t i = 0; i < ps.point_count(); ++i) {
    EXPECT_EQ(ps.line_population(i), want.populations[i]);
    EXPECT_EQ(ps.line_representative(i), want.representatives[i]);
  }
  for (std::size_t v = 0; v < verts.size(); ++v)
    EXPECT_EQ(ps.vertex_points()[v], want.vertex_points[v]);
}

class ProjectionProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ProjectionProperty, LinePopulationTimesStepsCoversDomain) {
  std::int64_t n = GetParam();
  ComputationStructure q = ComputationStructure::from_loop(workloads::sor2d(n, n));
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  std::size_t total = 0;
  for (std::size_t i = 0; i < ps.point_count(); ++i) total += ps.line_population(i);
  EXPECT_EQ(total, q.vertices().size());
  // All scaled points lie on the zero-hyperplane.
  for (const IntVec& p : ps.points()) EXPECT_EQ(dot(p, IntVec{1, 1}), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProjectionProperty, ::testing::Values(2, 3, 4, 6, 9));

}  // namespace
}  // namespace hypart
