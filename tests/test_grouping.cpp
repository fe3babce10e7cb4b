#include "partition/grouping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "dense_index_oracle.hpp"
#include "frontend/parser.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

struct Built {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
};

Built build(const LoopNest& nest, const IntVec& pi) {
  Built b;
  b.q = std::make_unique<ComputationStructure>(ComputationStructure::from_loop(nest));
  b.ps = std::make_unique<ProjectedStructure>(*b.q, TimeFunction{pi});
  return b;
}

TEST(GroupingTest, L1GroupSizeIsTwo) {
  Built b = build(workloads::example_l1(), {1, 1});
  Grouping g = Grouping::compute(*b.ps);
  EXPECT_EQ(g.group_size_r(), 2);
  ASSERT_TRUE(g.grouping_vector_index().has_value());
  // Grouping vector must be one of the nonzero projected deps with r = 2.
  EXPECT_FALSE(is_zero(b.ps->projected_deps_scaled()[*g.grouping_vector_index()]));
  // β = rank{(-1/2,1/2), (0,0), (1/2,-1/2)} = 1 -> no auxiliary vectors.
  EXPECT_EQ(g.beta(), 1u);
  EXPECT_TRUE(g.auxiliary_vector_indices().empty());
}

TEST(GroupingTest, L1FourGroups) {
  // Paper Fig. 3(b): 7 projected points -> 4 groups (three of size 2, one
  // boundary singleton).
  Built b = build(workloads::example_l1(), {1, 1});
  Grouping g = Grouping::compute(*b.ps);
  EXPECT_EQ(g.group_count(), 4u);
  std::multiset<std::size_t> sizes;
  for (const Group& grp : g.groups()) sizes.insert(grp.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 2, 2, 2}));
}

TEST(GroupingTest, L1EveryPointGroupedOnce) {
  Built b = build(workloads::example_l1(), {1, 1});
  Grouping g = Grouping::compute(*b.ps);
  std::set<std::size_t> seen;
  for (const Group& grp : g.groups())
    for (std::size_t pid : grp.members()) EXPECT_TRUE(seen.insert(pid).second);
  EXPECT_EQ(seen.size(), b.ps->point_count());
  for (std::size_t p = 0; p < b.ps->point_count(); ++p)
    EXPECT_LT(g.group_of_point(p), g.group_count());
}

TEST(GroupingTest, SlotsFollowGroupingVector) {
  Built b = build(workloads::example_l1(), {1, 1});
  Grouping g = Grouping::compute(*b.ps);
  const IntVec& step = b.ps->projected_deps_scaled()[*g.grouping_vector_index()];
  for (const Group& grp : g.groups()) {
    for (std::size_t k = 0; k < grp.slots.size(); ++k) {
      if (!grp.slots[k]) continue;
      IntVec expect = grp.base;
      for (std::size_t i = 0; i < k; ++i) expect = add(expect, step);
      EXPECT_EQ(b.ps->points()[*grp.slots[k]], expect);
    }
  }
}

TEST(GroupingTest, MatmulDefaultGrouping) {
  // r=3 over 37 projected points, β=2 with one auxiliary vector; the group
  // count depends on the (arbitrary) seed/auxiliary choices, but every
  // projected point must be covered and interior groups must hold 3 points.
  Built b = build(workloads::matrix_multiplication(), {1, 1, 1});
  Grouping g = Grouping::compute(*b.ps);
  EXPECT_EQ(g.group_size_r(), 3);
  EXPECT_EQ(g.beta(), 2u);
  EXPECT_EQ(g.auxiliary_vector_indices().size(), 1u);
  std::size_t covered = 0;
  for (const Group& grp : g.groups()) {
    EXPECT_GE(grp.size(), 1u);
    EXPECT_LE(grp.size(), 3u);
    covered += grp.size();
  }
  EXPECT_EQ(covered, 37u);
  EXPECT_GE(g.group_count(), 13u);  // ceil(37/3)
  EXPECT_LE(g.group_count(), 21u);  // each of the 7 lines splits into <= 3
}

TEST(GroupingTest, MatmulPaperSeedReproducesFigure6) {
  // The paper picks d_A^p = (-1/3,2/3,-1/3) as grouping vector, d_C^p =
  // (-1/3,-1/3,2/3) as auxiliary, and base vertex (-1,-1,2)
  // (scaled: (-3,-3,6)); Step 6 yields 17 groups (Fig. 6).
  Built b = build(workloads::matrix_multiplication(), {1, 1, 1});
  const std::vector<IntVec>& pdeps = b.ps->projected_deps_scaled();
  GroupingOptions opts;
  std::vector<std::size_t> aux;
  for (std::size_t k = 0; k < pdeps.size(); ++k) {
    if (pdeps[k] == IntVec{-1, 2, -1}) opts.grouping_vector = k;
    if (pdeps[k] == IntVec{-1, -1, 2}) aux.push_back(k);
  }
  opts.auxiliary_vectors = aux;
  ASSERT_TRUE(opts.grouping_vector.has_value());
  opts.seed_policy = SeedPolicy::ExplicitBases;
  opts.explicit_bases = {{-3, -3, 6}};
  Grouping g = Grouping::compute(*b.ps, opts);
  EXPECT_EQ(g.group_count(), 17u);

  // The paper's G_1 = {(-1,-1,2), (-4/3,-1/3,5/3), (-5/3,1/3,4/3)}
  // (scaled by 3: (-3,-3,6), (-4,-1,5), (-5,1,4)).
  std::optional<std::size_t> base_id = b.ps->find_point({-3, -3, 6});
  ASSERT_TRUE(base_id.has_value());
  std::size_t gid = g.group_of_point(*base_id);
  std::set<IntVec> members;
  for (std::size_t pid : g.groups()[gid].members()) members.insert(b.ps->points()[pid]);
  EXPECT_EQ(members, (std::set<IntVec>{{-3, -3, 6}, {-4, -1, 5}, {-5, 1, 4}}));
}

TEST(GroupingTest, AuxiliaryIndependentOfGroupingVector) {
  Built b = build(workloads::matrix_multiplication(), {1, 1, 1});
  Grouping g = Grouping::compute(*b.ps);
  ASSERT_EQ(g.auxiliary_vector_indices().size(), 1u);
  std::size_t l = *g.grouping_vector_index();
  std::size_t a = g.auxiliary_vector_indices()[0];
  EXPECT_NE(l, a);
  std::vector<RatVec> both{b.ps->projected_dep_rational(l), b.ps->projected_dep_rational(a)};
  EXPECT_EQ(rank_of(both), 2u);
}

TEST(GroupingTest, LatticeCoordinatesConsistent) {
  // Neighbor groups along the grouping direction differ by 1 in lattice[0];
  // along the auxiliary direction by 1 in lattice[1].
  Built b = build(workloads::matrix_multiplication(), {1, 1, 1});
  Grouping g = Grouping::compute(*b.ps);
  std::vector<IntVec> dirs = g.lattice_directions();
  ASSERT_EQ(dirs.size(), 2u);
  std::map<IntVec, std::size_t> base_to_group;
  for (std::size_t i = 0; i < g.group_count(); ++i) base_to_group[g.groups()[i].base] = i;
  for (const Group& grp : g.groups()) {
    for (std::size_t d = 0; d < dirs.size(); ++d) {
      auto it = base_to_group.find(add(grp.base, dirs[d]));
      if (it == base_to_group.end()) continue;
      const Group& nb = g.groups()[it->second];
      if (nb.component != grp.component) continue;
      IntVec expect = grp.lattice;
      expect[d] += 1;
      EXPECT_EQ(nb.lattice, expect);
    }
  }
}

TEST(GroupingTest, GroupingVectorOverrideValidation) {
  Built b = build(workloads::example_l1(), {1, 1});
  // Index of the zero projected dep (d2 = (1,1) ∥ Π) cannot be grouping
  // vector: its r is 1, not the max.
  const std::vector<IntVec>& pdeps = b.ps->projected_deps_scaled();
  for (std::size_t k = 0; k < pdeps.size(); ++k) {
    GroupingOptions opts;
    opts.grouping_vector = k;
    if (is_zero(pdeps[k])) {
      EXPECT_THROW(Grouping::compute(*b.ps, opts), std::invalid_argument);
    } else {
      Grouping g = Grouping::compute(*b.ps, opts);
      EXPECT_EQ(*g.grouping_vector_index(), k);
    }
  }
}

TEST(GroupingTest, DegenerateAllDepsParallelToPi) {
  // Single dependence (1,1) with Π = (1,1): D^p = {0}; every projected
  // point is its own group.
  ComputationStructure q({{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 2}}, {{1, 1}});
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  EXPECT_FALSE(g.grouping_vector_index().has_value());
  EXPECT_EQ(g.group_size_r(), 1);
  EXPECT_EQ(g.group_count(), ps.point_count());
  EXPECT_TRUE(g.lattice_directions().empty());
}

TEST(GroupingTest, OneDimensionalLoop) {
  // 1-nested loop: projected structure is the single origin point.
  ComputationStructure q({{0}, {1}, {2}, {3}}, {{1}});
  ProjectedStructure ps(q, TimeFunction{{1}});
  EXPECT_EQ(ps.point_count(), 1u);
  Grouping g = Grouping::compute(ps);
  EXPECT_EQ(g.group_count(), 1u);
}

TEST(GroupingTest, MatvecMGroups) {
  // Section IV: 2M-1 projected points, r=2 -> M groups.
  const std::int64_t m = 8;
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_vector(m));
  ProjectedStructure ps(q, TimeFunction{{1, 1}});
  Grouping g = Grouping::compute(ps);
  EXPECT_EQ(g.group_size_r(), 2);
  EXPECT_EQ(g.group_count(), static_cast<std::size_t>(m));
}

TEST(GroupingTest, GroupDigraphEdgesOnlyBetweenDistinctGroups) {
  Built b = build(workloads::matrix_multiplication(), {1, 1, 1});
  Grouping g = Grouping::compute(*b.ps);
  Digraph dg = g.group_digraph();
  EXPECT_EQ(dg.vertex_count(), g.group_count());
  for (std::size_t v = 0; v < dg.vertex_count(); ++v) EXPECT_FALSE(dg.has_edge(v, v));
}

class GroupingCoverProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(GroupingCoverProperty, AllWorkloadsCoverAllPoints) {
  std::int64_t n = GetParam();
  for (const LoopNest& nest :
       {workloads::sor2d(n, n + 1), workloads::convolution1d(n + 2, n), workloads::example_l1(n)}) {
    ComputationStructure q = ComputationStructure::from_loop(nest);
    auto tf = search_time_function(q);
    ASSERT_TRUE(tf.has_value());
    ProjectedStructure ps(q, *tf);
    Grouping g = Grouping::compute(ps);
    std::size_t covered = 0;
    for (const Group& grp : g.groups()) covered += grp.size();
    EXPECT_EQ(covered, ps.point_count()) << nest.name() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupingCoverProperty, ::testing::Values(2, 3, 4, 6));

TEST(GroupingTest, LexicographicComponentNumberingIsPinned) {
  // The strided recurrence splits the projected points into `stride`
  // disconnected chain-residue classes — the multi-component case.  Under
  // SeedPolicy::Lexicographic (the default), component k must be the k-th
  // region in ascending order of its lexicographically smallest projected
  // point, the numbering the symbolic group lattice reproduces without
  // materializing groups.  Regression-pins that contract.
  Built b = build(workloads::strided_recurrence(9, 3), {1, 1});
  Grouping g = Grouping::compute(*b.ps);

  std::size_t ncomp = 0;
  for (const Group& grp : g.groups()) ncomp = std::max(ncomp, grp.component + 1);
  ASSERT_GE(ncomp, 2u) << "want a genuinely multi-component workload";

  // Component ids are contiguous from 0 and appear in nondecreasing order of
  // first use across the group list (each region is grown to completion
  // before the next seed is chosen).
  std::size_t high = 0;
  for (const Group& grp : g.groups()) {
    EXPECT_LE(grp.component, high + 1);
    high = std::max(high, grp.component);
  }
  EXPECT_EQ(high + 1, ncomp);

  // The numbering key: component k's lex-smallest projected point precedes
  // component k+1's (std::vector compares lexicographically).
  std::vector<IntVec> comp_min(ncomp);
  std::vector<bool> seen(ncomp, false);
  for (const Group& grp : g.groups())
    for (std::size_t pid : grp.members()) {
      const IntVec& pt = b.ps->points()[pid];
      if (!seen[grp.component] || pt < comp_min[grp.component]) {
        comp_min[grp.component] = pt;
        seen[grp.component] = true;
      }
    }
  for (std::size_t c = 0; c + 1 < ncomp; ++c) {
    ASSERT_TRUE(seen[c] && seen[c + 1]);
    EXPECT_LT(comp_min[c], comp_min[c + 1]) << "component " << c;
  }
  // Component 0 is seeded at the global lex-minimum (points() is sorted).
  EXPECT_EQ(comp_min[0], b.ps->points().front());

  // Bitwise-identical across an independent recomputation.
  Built b2 = build(workloads::strided_recurrence(9, 3), {1, 1});
  Grouping g2 = Grouping::compute(*b2.ps);
  ASSERT_EQ(g2.group_count(), g.group_count());
  for (std::size_t i = 0; i < g.group_count(); ++i) {
    EXPECT_EQ(g2.groups()[i].base, g.groups()[i].base);
    EXPECT_EQ(g2.groups()[i].lattice, g.groups()[i].lattice);
    EXPECT_EQ(g2.groups()[i].component, g.groups()[i].component);
    EXPECT_EQ(g2.groups()[i].slots, g.groups()[i].slots);
  }
}

/// Group-for-group equality: base, lattice, component and slots, in order.
void expect_same_groups(const std::vector<Group>& got, const std::vector<Group>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].base, want[i].base) << what << " group " << i;
    EXPECT_EQ(got[i].lattice, want[i].lattice) << what << " group " << i;
    EXPECT_EQ(got[i].component, want[i].component) << what << " group " << i;
    EXPECT_EQ(got[i].slots, want[i].slots) << what << " group " << i;
  }
}

/// Grouping::compute against the IntVec oracle on one projected structure;
/// adds the walks it took to `walks` and returns its own counts.
GrowthStats expect_matches_oracle(const ProjectedStructure& ps, const GroupingOptions& opts,
                                  const std::string& what, GrowthStats& walks) {
  const Grouping g = Grouping::compute(ps, opts);
  expect_same_groups(g.groups(), oracle::region_growing(ps, opts), what);
  walks.nodes_visited += g.growth().nodes_visited;
  walks.lattice_box_walks += g.growth().lattice_box_walks;
  walks.widened_box_walks += g.growth().widened_box_walks;
  return g.growth();
}

/// Up to `count` explicit bases drawn from V^p, every other one nudged off
/// it by ±1 in its first coordinate.
std::vector<IntVec> random_bases(const ProjectedStructure& ps, std::mt19937_64& rng, int count) {
  std::uniform_int_distribution<std::int64_t> wobble(-1, 1);
  std::vector<IntVec> bases;
  for (int i = 0; i < count; ++i) {
    IntVec b = ps.points()[rng() % ps.point_count()];
    if (i % 2 == 1) b.front() += wobble(rng);
    bases.push_back(b);
  }
  return bases;
}

TEST(GroupingTest, RegionGrowingMatchesIntVecOracleOnRandomPointSets) {
  // Grouping::compute against IntVec region growing under both seed
  // policies; the explicit bases mix points of V^p with points outside it.
  // 200 trials of depth 1-3, then 16 of depth 4; over both loops the two
  // regions (the coset's lattice box and the widened box) must occur.
  // Depth-4 trials draw Π from [-1, 1]^4: a larger Π·Π makes r and the
  // widened box so large that the oracle's walk (a hash set of IntVec
  // bases) takes seconds per trial.
  GrowthStats walks;
  auto check = [&](const oracle::RandomStructure& rs, std::mt19937_64& rng,
                   const std::string& what) {
    const ComputationStructure q(rs.verts, rs.deps);
    const ProjectedStructure ps(q, rs.tf);
    expect_matches_oracle(ps, {}, what + " lexicographic", walks);
    GroupingOptions bases;
    bases.seed_policy = SeedPolicy::ExplicitBases;
    bases.explicit_bases = random_bases(ps, rng, 4);
    expect_matches_oracle(ps, bases, what + " explicit bases", walks);
  };
  std::mt19937_64 rng(20261020);
  for (int trial = 0; trial < 200; ++trial)
    check(oracle::random_structure(rng, trial, 3), rng, "trial " + std::to_string(trial));
  // With max_dim 4, trial 4k + 3 has depth 4.
  std::mt19937_64 rng4(4);
  for (int k = 0; k < 16; ++k)
    check(oracle::random_structure(rng4, 4 * k + 3, 4, 1), rng4,
          "depth-4 trial " + std::to_string(k));
  EXPECT_GT(walks.lattice_box_walks, 0u);
  EXPECT_GT(walks.widened_box_walks, 0u);
}

/// The 4-D unit recurrence of examples/programs/wave4d.loop over an n^4 box.
LoopNest wave4d(std::int64_t n) {
  const std::string hi = std::to_string(n - 1);
  return parse_loop_nest("loop wave4d {\n for i = 0 to " + hi + "\n for j = 0 to " + hi +
                         "\n for k = 0 to " + hi + "\n for l = 0 to " + hi +
                         "\n A[i, j, k, l] = A[i-1, j, k, l] + A[i, j-1, k, l] + "
                         "A[i, j, k-1, l] + A[i, j, k, l-1];\n}\n");
}

TEST(GroupingTest, RegionGrowingMatchesOracleOnNamedNests) {
  // The dense planner's nests under the searched Π, lexicographic and with
  // explicit bases: 4-D convolutions, wave4d, matmul, a multi-coset
  // strided nest.  Both regions must occur, and convolution2d(32, 4) —
  // whose widened box holds 33 148 lattice nodes for 2 062 groups — must
  // visit at most twice its group count.
  std::mt19937_64 rng(7919);
  GrowthStats walks;
  const std::vector<std::pair<std::string, LoopNest>> nests{
      {"convolution2d(6, 3)", workloads::convolution2d(6, 3)},
      {"convolution2d(12, 5)", workloads::convolution2d(12, 5)},
      {"convolution2d(32, 4)", workloads::convolution2d(32, 4)},
      {"wave4d(5)", wave4d(5)},
      {"wave4d(12)", wave4d(12)},
      {"matmul(7)", workloads::matrix_multiplication(7)},
      {"strided_recurrence3d(9, 2)", workloads::strided_recurrence3d(9, 2)},
      {"strided_recurrence(9, 3)", workloads::strided_recurrence(9, 3)},
  };
  for (const auto& [name, nest] : nests) {
    const ComputationStructure q = ComputationStructure::from_loop(nest);
    const std::optional<TimeFunction> tf = search_time_function(q);
    ASSERT_TRUE(tf.has_value()) << name;
    const ProjectedStructure ps(q, *tf);
    const GrowthStats lex = expect_matches_oracle(ps, {}, name, walks);
    if (name == "convolution2d(32, 4)") {
      EXPECT_STREQ(lex.walk(), "lattice-box");
      EXPECT_LE(lex.nodes_visited, 2 * Grouping::compute(ps).group_count());
    }
    if (name.starts_with("strided")) {
      EXPECT_GE(lex.lattice_box_walks, 2u) << name;
    }
    GroupingOptions bases;
    bases.seed_policy = SeedPolicy::ExplicitBases;
    bases.explicit_bases = random_bases(ps, rng, 6);
    expect_matches_oracle(ps, bases, name + " explicit bases", walks);
  }

  // The paper's Fig. 6 seed on matmul, with its grouping and auxiliary
  // vectors pinned.
  Built b = build(workloads::matrix_multiplication(), {1, 1, 1});
  const std::vector<IntVec>& pdeps = b.ps->projected_deps_scaled();
  GroupingOptions paper;
  std::vector<std::size_t> aux;
  for (std::size_t k = 0; k < pdeps.size(); ++k) {
    if (pdeps[k] == IntVec{-1, 2, -1}) paper.grouping_vector = k;
    if (pdeps[k] == IntVec{-1, -1, 2}) aux.push_back(k);
  }
  paper.auxiliary_vectors = aux;
  paper.seed_policy = SeedPolicy::ExplicitBases;
  paper.explicit_bases = {{-3, -3, 6}};
  expect_matches_oracle(*b.ps, paper, "matmul paper seed", walks);

  EXPECT_GT(walks.lattice_box_walks, 0u);
  EXPECT_GT(walks.widened_box_walks, 0u);
}

TEST(GroupingTest, WidenedBoxOutsideInt64Throws) {
  // Π = (1, 0) projects (x, y) to (0, y); the grouping vector (0, 1) has
  // r = 1, so the widened box reaches 2 below the smallest y.  Within that
  // margin of INT64_MIN its bound leaves int64: an ArithmeticError, not a
  // wrapped (empty) box that would make every node its own group.
  const std::int64_t y = INT64_MIN + 1;
  const ComputationStructure q({{0, y}, {0, y + 1}, {1, y}, {1, y + 1}}, {{1, 0}, {1, 1}});
  const ProjectedStructure ps(q, TimeFunction{{1, 0}});
  EXPECT_THROW((void)Grouping::compute(ps), ArithmeticError);
}

}  // namespace
}  // namespace hypart
