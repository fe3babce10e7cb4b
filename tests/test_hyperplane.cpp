#include "schedule/hyperplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "dense_index_oracle.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

TEST(TimeFunctionTest, StepAndNorm) {
  TimeFunction tf{{1, 1}};
  EXPECT_EQ(tf.step_of(IntVec{2, 3}), 5);
  EXPECT_EQ(tf.norm2(), 2);
  EXPECT_EQ(tf.to_string(), "(1, 1)");
}

TEST(Validity, L1UniformIsValid) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  EXPECT_TRUE(is_valid_time_function(TimeFunction{{1, 1}}, q.dependences()));
  // (1,0) fails: d=(0,1) has Π·d = 0.
  EXPECT_FALSE(is_valid_time_function(TimeFunction{{1, 0}}, q.dependences()));
  // (1,-1) fails on (1,1)? Π·(1,1) = 0 -> invalid.
  EXPECT_FALSE(is_valid_time_function(TimeFunction{{1, -1}}, q.dependences()));
  EXPECT_FALSE(is_valid_time_function(TimeFunction{{0, 0}}, q.dependences()));
  EXPECT_FALSE(is_valid_time_function(TimeFunction{{}}, q.dependences()));
}

TEST(Validity, MatmulUniformIsValid) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication(2));
  EXPECT_TRUE(is_valid_time_function(TimeFunction{{1, 1, 1}}, q.dependences()));
  EXPECT_FALSE(is_valid_time_function(TimeFunction{{1, 1, 0}}, q.dependences()));
}

TEST(Profile, L1Hyperplanes) {
  // Fig. 1: hyperplanes i+j = 0..6 on the 4x4 domain; widest has 4 points.
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  ScheduleProfile p = profile_schedule(TimeFunction{{1, 1}}, q.vertices());
  EXPECT_EQ(p.first_step, 0);
  EXPECT_EQ(p.last_step, 6);
  EXPECT_EQ(p.step_count, 7u);
  EXPECT_EQ(p.span(), 7);
  EXPECT_EQ(p.max_parallelism, 4u);
  EXPECT_EQ(p.points_per_step.at(0), 1u);
  EXPECT_EQ(p.points_per_step.at(3), 4u);
  EXPECT_EQ(p.points_per_step.at(6), 1u);
}

TEST(Profile, EmptyPoints) {
  ScheduleProfile p = profile_schedule(TimeFunction{{1}}, {});
  EXPECT_EQ(p.step_count, 0u);
  EXPECT_EQ(p.max_parallelism, 0u);
}

TEST(Search, FindsOptimalForL1) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  auto tf = search_time_function(q);
  ASSERT_TRUE(tf.has_value());
  // (1,1) has span 7; no valid Π in the box does better (dependences force
  // positive components).
  EXPECT_TRUE(is_valid_time_function(*tf, q.dependences()));
  ScheduleProfile p = profile_schedule(*tf, q.vertices());
  EXPECT_EQ(p.span(), 7);
  EXPECT_EQ(tf->pi, (IntVec{1, 1}));
}

TEST(Search, FindsOptimalForMatmul) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_multiplication(3));
  auto tf = search_time_function(q);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->pi, (IntVec{1, 1, 1}));
  EXPECT_EQ(profile_schedule(*tf, q.vertices()).span(), 10);
}

TEST(Search, RespectsSearchBox) {
  // Dependences {(2,-1), (-1,2)} require Π with both components positive and
  // within ratio (1/2, 2); Π=(1,1) works.  A box of 0 coefficients can't.
  ComputationStructure q({{0, 0}, {1, 1}}, {{2, -1}, {-1, 2}});
  TimeFunctionSearchOptions opts;
  opts.max_coefficient = 0;
  EXPECT_FALSE(search_time_function(q, opts).has_value());
  opts.max_coefficient = 1;
  auto tf = search_time_function(q, opts);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->pi, (IntVec{1, 1}));
}

TEST(Search, NonnegativeRestriction) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::sor2d(4, 4));
  TimeFunctionSearchOptions opts;
  opts.nonnegative_only = true;
  auto tf = search_time_function(q, opts);
  ASSERT_TRUE(tf.has_value());
  for (std::int64_t c : tf->pi) EXPECT_GE(c, 0);
}

TEST(Search, NegativeCoefficientWhenBeneficial) {
  // Dependence (1,-1) only: Π=(1,0) is valid with span N; Π=(1,-1)
  // normalizes… search should find a valid Π regardless of sign structure.
  ComputationStructure q({{0, 0}, {0, 1}, {1, 0}, {1, 1}}, {{1, -1}});
  auto tf = search_time_function(q);
  ASSERT_TRUE(tf.has_value());
  EXPECT_GT(dot(tf->pi, {1, -1}), 0);
}

TEST(UniformTf, ValidAndInvalid) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  TimeFunction tf = uniform_time_function(q.dependences(), 2);
  EXPECT_EQ(tf.pi, (IntVec{1, 1}));
  // Dependence with a negative total: (1,-2) has Π·d = -1 < 0.
  EXPECT_THROW(uniform_time_function({{1, -2}}, 2), std::invalid_argument);
}

TEST(Search, SpanNeverBelowCriticalPath) {
  // The longest dependence chain (in arcs) + 1 lower-bounds any linear
  // schedule's step count.
  for (auto nest : {workloads::example_l1(), workloads::sor2d(4, 5)}) {
    ComputationStructure q = ComputationStructure::from_loop(nest);
    std::size_t critical = q.to_digraph().dag_longest_path();
    auto tf = search_time_function(q);
    ASSERT_TRUE(tf.has_value());
    EXPECT_GE(static_cast<std::size_t>(profile_schedule(*tf, q.vertices()).span()), critical + 1);
  }
}

class ValidityProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ValidityProperty, AllArcsRespectSchedule) {
  // For every arc (u, v) of the structure, step(v) > step(u) under a valid Π.
  std::int64_t n = GetParam();
  ComputationStructure q = ComputationStructure::from_loop(workloads::sor2d(n, n));
  auto tf = search_time_function(q);
  ASSERT_TRUE(tf.has_value());
  q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t) {
    EXPECT_LT(tf->step_of(src), tf->step_of(dst));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ValidityProperty, ::testing::Values(2, 3, 5));

/// The line-end search and the all-points oracle on one vertex set: the
/// same Π (or none), or the same typed overflow error.
void expect_search_matches_oracle(const std::vector<IntVec>& verts,
                                  const std::vector<IntVec>& deps,
                                  const TimeFunctionSearchOptions& opts, const std::string& what) {
  const ComputationStructure q(verts, deps);
  std::optional<TimeFunction> want;
  try {
    want = oracle::search_all_points(verts, deps, q.dimension(), opts);
  } catch (const ArithmeticError&) {
    EXPECT_THROW((void)search_time_function(q, opts), ArithmeticError) << what;
    return;
  }
  const std::optional<TimeFunction> got = search_time_function(q, opts);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (got) {
    EXPECT_EQ(got->pi, want->pi) << what;
  }
}

TEST(SearchProperty, LineEndsMatchAllPointsOnRandomSets) {
  // Boxes with holes (lines with gaps), in lexicographic order and
  // shuffled (the sorted-order path), with and without the nonnegative
  // restriction, over three search boxes.
  std::mt19937_64 rng(20261020);
  for (int trial = 0; trial < 240; ++trial) {
    const oracle::RandomStructure rs = oracle::random_structure(rng, trial, 3);
    TimeFunctionSearchOptions opts;
    opts.max_coefficient = 1 + trial % 3;
    opts.nonnegative_only = (trial / 2) % 2 == 1;
    expect_search_matches_oracle(rs.verts, rs.deps, opts, "trial " + std::to_string(trial));
  }
}

TEST(SearchProperty, LineEndsMatchAllPointsOnRandomAffineNests) {
  // J^n of random affine nests (shifting, shrinking and empty inner
  // ranges), passed sorted and shuffled, with random dependences.
  std::mt19937_64 rng(20261021);
  std::uniform_int_distribution<std::int64_t> comp(-2, 2);
  std::size_t searched = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const LoopNest nest = oracle::random_affine_nest(rng);
    std::vector<IntVec> verts = oracle::enumerate_points(nest);
    if (verts.empty()) continue;
    if (trial % 2 == 1) std::shuffle(verts.begin(), verts.end(), rng);
    std::vector<IntVec> deps;
    while (deps.size() < 1 + static_cast<std::size_t>(trial) % 3) {
      IntVec d(nest.depth());
      for (std::int64_t& x : d) x = comp(rng);
      if (!is_zero(d)) deps.push_back(d);
    }
    TimeFunctionSearchOptions opts;
    opts.max_coefficient = nest.depth() == 4 ? 1 : 2;
    opts.nonnegative_only = trial % 4 >= 2;
    expect_search_matches_oracle(verts, deps, opts, "trial " + std::to_string(trial));
    ++searched;
  }
  EXPECT_GE(searched, 170u);
}

TEST(SearchProperty, TiesOnSpanAndNormDecideLikeTheOracle) {
  // A square with the diagonal dependence: (0,1) and (1,0) tie on span and
  // norm, so the lexicographically smaller Π wins.
  std::vector<IntVec> square;
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 4; ++j) square.push_back({i, j});
  TimeFunctionSearchOptions opts;
  expect_search_matches_oracle(square, {{1, 1}}, opts, "square");
  EXPECT_EQ(search_time_function(ComputationStructure(square, {{1, 1}}))->pi, (IntVec{0, 1}));
  // One point: every valid Π has span 1, so the norm and then the order
  // decide.
  expect_search_matches_oracle({{5, -7}}, {{1, 0}}, opts, "point");
  expect_search_matches_oracle({{5, -7, 2}}, {{1, 1, 0}, {0, 0, 1}}, opts, "point3");
  // One line, and two lines of different lengths with a gap.
  expect_search_matches_oracle({{0, 0}, {0, 1}, {0, 2}}, {{1, -1}}, opts, "line");
  expect_search_matches_oracle({{0, 0}, {0, 3}, {2, -1}, {2, 0}, {2, 5}}, {{1, 0}, {0, 1}}, opts,
                               "gaps");
  opts.nonnegative_only = true;
  expect_search_matches_oracle(square, {{1, 1}}, opts, "square, nonnegative");
}

TEST(SearchProperty, OverflowNearTwoToTheSixtyTwoThrowsLikeTheOracle) {
  // Π·x leaves int64 for the first valid candidate (-3, 1): both scans
  // raise ArithmeticError.
  constexpr std::int64_t kBig = std::int64_t{1} << 62;
  const std::vector<IntVec> verts{{kBig, 0}, {kBig, 1}, {kBig, 2}};
  const std::vector<IntVec> deps{{0, 1}};
  const ComputationStructure q(verts, deps);
  EXPECT_THROW((void)oracle::search_all_points(verts, deps, 2, {}), ArithmeticError);
  EXPECT_THROW((void)search_time_function(q), ArithmeticError);
  // In the unit nonnegative box every Π·x fits, and both pick (0, 1).
  TimeFunctionSearchOptions unit;
  unit.max_coefficient = 1;
  unit.nonnegative_only = true;
  expect_search_matches_oracle(verts, deps, unit, "unit box");
  EXPECT_EQ(search_time_function(q, unit)->pi, (IntVec{0, 1}));
}

}  // namespace
}  // namespace hypart
