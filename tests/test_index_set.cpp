#include "loop/index_set.hpp"

#include <gtest/gtest.h>

#include <random>

#include "dense_index_oracle.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

TEST(IndexSetTest, RectangularEnumeration) {
  IndexSet is(workloads::example_l1(3));  // 4x4
  std::vector<IntVec> pts = is.points().to_vectors();
  EXPECT_EQ(pts.size(), 16u);
  EXPECT_EQ(is.size(), 16u);
  EXPECT_EQ(pts.front(), (IntVec{0, 0}));
  EXPECT_EQ(pts.back(), (IntVec{3, 3}));
  // Lexicographic order.
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_LT(pts[i - 1], pts[i]);
}

TEST(IndexSetTest, Contains) {
  IndexSet is(workloads::example_l1(3));
  EXPECT_TRUE(is.contains({0, 0}));
  EXPECT_TRUE(is.contains({3, 3}));
  EXPECT_FALSE(is.contains({4, 0}));
  EXPECT_FALSE(is.contains({0, -1}));
  EXPECT_FALSE(is.contains({0}));  // wrong arity
}

TEST(IndexSetTest, MatvecBoundsStartAtOne) {
  IndexSet is(workloads::matrix_vector(4));
  EXPECT_EQ(is.size(), 16u);
  EXPECT_TRUE(is.contains({1, 1}));
  EXPECT_FALSE(is.contains({0, 1}));
  EXPECT_TRUE(is.contains({4, 4}));
}

TEST(IndexSetTest, TriangularDomain) {
  LoopNest tri = LoopNestBuilder("tri")
                     .loop("i", 0, 3)
                     .loop("j", 0, idx(0))
                     .statement("S")
                     .write("A", {idx(0), idx(1)})
                     .build();
  IndexSet is(tri);
  // 1 + 2 + 3 + 4 = 10 points.
  EXPECT_EQ(is.size(), 10u);
  std::vector<IntVec> pts = is.points().to_vectors();
  ASSERT_EQ(pts.size(), 10u);
  for (const IntVec& p : pts) EXPECT_LE(p[1], p[0]);
  EXPECT_TRUE(is.contains({3, 3}));
  EXPECT_FALSE(is.contains({1, 2}));
}

TEST(IndexSetTest, DiagonalBandDomain) {
  // for i = 0..5; for j = i-1 .. i+1  (a band)
  LoopNest band = LoopNestBuilder("band")
                      .loop("i", 0, 5)
                      .loop("j", idx(0) - 1, idx(0) + 1)
                      .statement("S")
                      .write("A", {idx(0), idx(1)})
                      .build();
  IndexSet is(band);
  EXPECT_EQ(is.size(), 18u);
  EXPECT_TRUE(is.contains({2, 1}));
  EXPECT_TRUE(is.contains({2, 3}));
  EXPECT_FALSE(is.contains({2, 4}));
}

TEST(IndexSetTest, EmptyRange) {
  LoopNest empty = LoopNestBuilder("empty")
                       .loop("i", 5, 2)
                       .statement("S")
                       .write("A", {idx(0)})
                       .build();
  IndexSet is(empty);
  EXPECT_EQ(is.size(), 0u);
  EXPECT_TRUE(is.points().empty());
}

TEST(IndexSetTest, PartiallyEmptyInnerRange) {
  // Inner loop empty for i < 2.
  LoopNest nest = LoopNestBuilder("partial")
                      .loop("i", 0, 3)
                      .loop("j", 2, idx(0))
                      .statement("S")
                      .write("A", {idx(0), idx(1)})
                      .build();
  IndexSet is(nest);
  // i=2: j=2; i=3: j=2,3 -> 3 points.
  EXPECT_EQ(is.size(), 3u);
  EXPECT_EQ(is.points().to_vectors(), (std::vector<IntVec>{{2, 2}, {3, 2}, {3, 3}}));
}

TEST(IndexSetTest, ThreeDimensional) {
  IndexSet is(workloads::matrix_multiplication(3));  // 4x4x4
  EXPECT_EQ(is.size(), 64u);
  EXPECT_EQ(is.points().size(), 64u);
}

TEST(IndexSetTest, RectangularBoundsAccessor) {
  IndexSet is(workloads::matrix_vector(8));
  auto b = is.rectangular_bounds();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], std::make_pair(std::int64_t{1}, std::int64_t{8}));
}

TEST(IndexSetTest, RectangularBoundsThrowsOnAffine) {
  LoopNest tri = LoopNestBuilder("tri")
                     .loop("i", 0, 3)
                     .loop("j", 0, idx(0))
                     .statement("S")
                     .write("A", {idx(0), idx(1)})
                     .build();
  EXPECT_THROW(IndexSet(tri).rectangular_bounds(), std::logic_error);
}

TEST(IndexSetTest, SingleLoop) {
  LoopNest l = LoopNestBuilder("l")
                   .loop("i", -2, 2)
                   .statement("S")
                   .write("A", {idx(0)})
                   .read("A", {idx(0) - 1})
                   .build();
  IndexSet is(l);
  EXPECT_EQ(is.size(), 5u);
  EXPECT_EQ(is.points().to_vectors().front(), (IntVec{-2}));
}

// Parameterized sweep: size() equals points().size() for various shapes.
class IndexSetSizeProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(IndexSetSizeProperty, CountMatchesEnumeration) {
  std::int64_t n = GetParam();
  IndexSet rect(workloads::sor2d(n, n + 1));
  EXPECT_EQ(rect.size(), rect.points().size());

  LoopNest tri = LoopNestBuilder("tri")
                     .loop("i", 0, n)
                     .loop("j", idx(0), n)
                     .statement("S")
                     .write("A", {idx(0), idx(1)})
                     .build();
  IndexSet t(tri);
  EXPECT_EQ(t.size(), t.points().size());
  EXPECT_EQ(t.size(), static_cast<std::uint64_t>((n + 1) * (n + 2) / 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IndexSetSizeProperty, ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(IndexSetRows, MatchRecursiveEnumerationOnRandomAffineNests) {
  // points() writes one row-major buffer; its rows must be exactly J^n in
  // lexicographic order, as plain recursion over the bounds finds it, on
  // nests whose inner ranges shift, shrink and come out empty.
  std::mt19937_64 rng(20261019);
  std::size_t empty_sets = 0, points = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const LoopNest nest = oracle::random_affine_nest(rng);
    const std::vector<IntVec> want = oracle::enumerate_points(nest);
    const IndexSet is(nest);
    const PointRows rows = is.points();
    ASSERT_EQ(rows.dim(), nest.depth()) << "trial " << trial;
    ASSERT_EQ(rows.size(), want.size()) << "trial " << trial;
    EXPECT_EQ(rows.to_vectors(), want) << "trial " << trial;
    EXPECT_EQ(is.size(), want.size());
    std::size_t i = 0;
    for (PointRef r : rows) {
      ASSERT_EQ(r.size(), nest.depth());
      EXPECT_TRUE(std::equal(r.begin(), r.end(), want[i].begin())) << "trial " << trial;
      ++i;
    }
    empty_sets += want.empty() ? 1 : 0;
    points += want.size();
  }
  EXPECT_GE(empty_sets, 5u);
  EXPECT_GE(points, 3000u);
}

}  // namespace
}  // namespace hypart
