#include "graph/comp_structure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>


#include "core/error.hpp"
#include "dense_index_oracle.hpp"
#include "loop/index_set.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

TEST(CompStructure, FromL1MatchesPaperCounts) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  EXPECT_EQ(q.dimension(), 2u);
  EXPECT_EQ(q.vertices().size(), 16u);
  EXPECT_EQ(q.dependences().size(), 3u);
  // Paper Section II: 33 data dependencies in loop L1 on the 4x4 domain.
  EXPECT_EQ(q.dependence_arc_count(), 33u);
}

TEST(CompStructure, ArcEnumerationConsistent) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  std::size_t count = 0;
  q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t k) {
    ++count;
    EXPECT_TRUE(q.contains(src));
    EXPECT_TRUE(q.contains(dst));
    EXPECT_EQ(sub(dst, src), q.dependences()[k]);
  });
  EXPECT_EQ(count, q.dependence_arc_count());
}

TEST(CompStructure, Acyclic) {
  EXPECT_TRUE(ComputationStructure::from_loop(workloads::example_l1()).is_acyclic());
  EXPECT_TRUE(ComputationStructure::from_loop(workloads::matrix_vector(4)).is_acyclic());
  EXPECT_TRUE(ComputationStructure::from_loop(workloads::matrix_multiplication(2)).is_acyclic());
}

TEST(CompStructure, IdLookup) {
  ComputationStructure q = ComputationStructure::from_loop(workloads::example_l1());
  std::size_t id = q.id_of({2, 3});
  EXPECT_TRUE(same_point(q.vertices()[id], IntVec{2, 3}));
  EXPECT_THROW(static_cast<void>(q.id_of({9, 9})), std::out_of_range);
}

TEST(CompStructure, ExplicitConstruction) {
  ComputationStructure q({{0, 0}, {0, 1}, {1, 0}, {1, 1}}, {{0, 1}, {1, 0}});
  EXPECT_EQ(q.dependence_arc_count(), 4u);
  Digraph g = q.to_digraph();
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(CompStructure, RejectsBadInput) {
  EXPECT_THROW(ComputationStructure(std::vector<IntVec>{}, {{1}}), std::invalid_argument);
  EXPECT_THROW(ComputationStructure(PointRows(1), {{1}}), std::invalid_argument);
  EXPECT_THROW(ComputationStructure({{0, 0}, {0}}, {{1, 0}}), std::invalid_argument);  // mixed
  EXPECT_THROW(ComputationStructure({{0, 0}}, {{1}}), std::invalid_argument);       // dim mismatch
  EXPECT_THROW(ComputationStructure({{0, 0}}, {{0, 0}}), std::invalid_argument);    // zero dep
  EXPECT_THROW(ComputationStructure({{0, 0}, {0, 0}}, {{0, 1}}), std::invalid_argument);  // dup
}

TEST(CompStructure, MatvecArcCount) {
  // M x M matvec, D = {(1,0),(0,1)}: each dependence has M(M-1) in-domain
  // pairs -> 2*M*(M-1) arcs.
  const std::int64_t m = 5;
  ComputationStructure q = ComputationStructure::from_loop(workloads::matrix_vector(m));
  EXPECT_EQ(q.dependence_arc_count(), static_cast<std::size_t>(2 * m * (m - 1)));
}

TEST(CompStructure, DigraphLongestPathMatchesScheduleLowerBound) {
  // The longest dependence chain bounds any schedule from below; for the
  // wavefront stencil on an n^3 cube it is 3(n-1).
  ComputationStructure q = ComputationStructure::from_loop(workloads::wavefront3d(4));
  EXPECT_EQ(q.to_digraph().dag_longest_path(), 9u);
}

class ArcCountProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ArcCountProperty, Sor2dArcFormula) {
  // sor2d on rows x cols with D = {(1,0),(0,1)}:
  // (rows-1)*cols + rows*(cols-1) arcs.
  std::int64_t n = GetParam();
  ComputationStructure q = ComputationStructure::from_loop(workloads::sor2d(n, n + 2));
  std::int64_t rows = n, cols = n + 2;
  EXPECT_EQ(q.dependence_arc_count(),
            static_cast<std::size_t>((rows - 1) * cols + rows * (cols - 1)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArcCountProperty, ::testing::Values(2, 3, 4, 7, 10));

using ArcTriple = std::tuple<std::size_t, std::size_t, std::size_t>;

/// Brute-force arc enumeration: hash every vertex, then probe v + d_k for
/// every vertex id (outer) and dependence index (inner).
std::vector<ArcTriple> oracle_arcs(const std::vector<IntVec>& verts,
                                   const std::vector<IntVec>& deps) {
  std::unordered_map<IntVec, std::size_t, IntVecHash> index;
  for (std::size_t i = 0; i < verts.size(); ++i) index.emplace(verts[i], i);
  std::vector<ArcTriple> arcs;
  for (std::size_t v = 0; v < verts.size(); ++v)
    for (std::size_t k = 0; k < deps.size(); ++k) {
      auto it = index.find(add(verts[v], deps[k]));
      if (it != index.end()) arcs.emplace_back(v, it->second, k);
    }
  return arcs;
}

std::vector<ArcTriple> table_arcs(const ComputationStructure& q) {
  std::vector<ArcTriple> arcs;
  q.for_each_arc_id(
      [&](std::size_t src, std::size_t dst, std::size_t k) { arcs.emplace_back(src, dst, k); });
  return arcs;
}

TEST(ArcTable, HandBuiltUnsortedVertices) {
  // Ids are the caller's order, not lexicographic order.
  ComputationStructure q({{1, 1}, {0, 0}, {1, 0}, {0, 1}}, {{0, 1}, {1, 0}});
  EXPECT_EQ(table_arcs(q),
            (std::vector<ArcTriple>{{1, 3, 0}, {1, 2, 1}, {2, 0, 0}, {3, 0, 1}}));
  EXPECT_EQ(q.dependence_arc_count(), 4u);
}

TEST(ArcTable, SinksBeyondInt64RangeLeaveV) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  ComputationStructure up({{kMax}, {kMax - 1}}, {{1}});
  EXPECT_EQ(table_arcs(up), (std::vector<ArcTriple>{{1, 0, 0}}));
  ComputationStructure down({{kMin + 1}, {kMin}}, {{-1}});
  EXPECT_EQ(table_arcs(down), (std::vector<ArcTriple>{{0, 1, 0}}));
}

TEST(ArcTable, MatchesHashOracleOnRandomPointSets) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<std::int64_t> coord(-3, 3);
  std::uniform_int_distribution<std::int64_t> comp(-2, 2);
  std::bernoulli_distribution keep(0.6);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t dim = 1 + static_cast<std::size_t>(trial % 3);
    // A box with holes: every point of [-3, 3]^dim kept with probability 0.6.
    std::vector<IntVec> verts;
    IntVec p(dim, -3);
    while (true) {
      if (keep(rng)) verts.push_back(p);
      std::size_t c = dim;
      while (c > 0 && p[c - 1] == 3) p[--c] = -3;
      if (c == 0) break;
      ++p[c - 1];
    }
    if (verts.empty()) verts.push_back(IntVec(dim, 0));
    // Half the trials pass V out of lexicographic order.
    if (trial % 2 == 1) std::shuffle(verts.begin(), verts.end(), rng);

    // Dependences with negative components, and a repeated one.
    std::vector<IntVec> deps;
    const int ndeps = 1 + trial % 4;
    while (deps.size() < static_cast<std::size_t>(ndeps)) {
      IntVec d(dim);
      for (std::int64_t& x : d) x = comp(rng);
      if (!is_zero(d)) deps.push_back(d);
    }
    deps.push_back(deps.front());

    ComputationStructure q(verts, deps);
    const std::vector<ArcTriple> expected = oracle_arcs(verts, deps);
    ASSERT_EQ(table_arcs(q), expected) << "trial " << trial;
    EXPECT_EQ(q.dependence_arc_count(), expected.size());

    // The point-level visitor walks the same arcs in the same order.
    std::size_t i = 0;
    q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t k) {
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(src, verts[std::get<0>(expected[i])]);
      EXPECT_EQ(dst, verts[std::get<1>(expected[i])]);
      EXPECT_EQ(k, std::get<2>(expected[i]));
      ++i;
    });
    EXPECT_EQ(i, expected.size());
  }
}

TEST(ArcTable, MatchesHashOracleOnWorkloads) {
  for (const LoopNest& nest : {workloads::example_l1(5), workloads::matrix_vector(6),
                               workloads::wavefront3d(4), workloads::convolution2d(4, 2)}) {
    ComputationStructure q = ComputationStructure::from_loop(nest);
    EXPECT_EQ(table_arcs(q), oracle_arcs(q.vertices().to_vectors(), q.dependences()))
        << nest.name();
  }
}

TEST(VertexIndex, MatchesHashOracleOnRandomPointSets) {
  // id_of, contains and arc_sink against a hash index of V: 200 random sets
  // with holes, negative coordinates, unsorted ids and a repeated
  // dependence; a duplicated vertex must still be refused.
  std::mt19937_64 rng(20261018);
  std::uniform_int_distribution<std::int64_t> probe(-4, 4);
  for (int trial = 0; trial < 200; ++trial) {
    const oracle::RandomStructure rs = oracle::random_structure(rng, trial, 3);
    const ComputationStructure q(rs.verts, rs.deps);
    const auto index = oracle::vertex_index(rs.verts);
    for (std::size_t v = 0; v < rs.verts.size(); ++v) {
      ASSERT_EQ(q.id_of(rs.verts[v]), v) << "trial " << trial;
      EXPECT_TRUE(q.contains(rs.verts[v]));
      for (std::size_t k = 0; k < rs.deps.size(); ++k) {
        auto it = index.find(add(rs.verts[v], rs.deps[k]));
        std::optional<std::size_t> expected;
        if (it != index.end()) expected = it->second;
        ASSERT_EQ(q.arc_sink(v, k), expected) << "trial " << trial << " v " << v << " k " << k;
      }
    }
    // Points of a wider box, most of them absent.
    for (int i = 0; i < 50; ++i) {
      IntVec x(q.dimension());
      for (std::int64_t& c : x) c = probe(rng);
      auto it = index.find(x);
      EXPECT_EQ(q.contains(x), it != index.end());
      if (it != index.end()) EXPECT_EQ(q.id_of(x), it->second);
      else EXPECT_THROW((void)q.id_of(x), std::out_of_range);
    }
    std::vector<IntVec> dup = rs.verts;
    dup.push_back(rs.verts[static_cast<std::size_t>(trial) % rs.verts.size()]);
    if (trial % 2 == 0) std::shuffle(dup.begin(), dup.end(), rng);
    EXPECT_THROW((void)oracle::vertex_index(dup), std::invalid_argument);
    EXPECT_THROW(ComputationStructure(dup, rs.deps), std::invalid_argument) << "trial " << trial;
  }
}

TEST(FlatStore, ShuffledVectorsMatchSortedRows) {
  // The same vertex set as sorted IndexSet rows and as a shuffled
  // std::vector<IntVec>: equal rows under the permutation, equal id_of,
  // equal lexicographic order, and the same arc table up to renumbering.
  std::mt19937_64 rng(20261022);
  std::uniform_int_distribution<std::int64_t> comp(-2, 2);
  std::size_t built = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const LoopNest nest = oracle::random_affine_nest(rng);
    PointRows rows = IndexSet(nest).points();
    if (rows.empty()) continue;
    std::vector<IntVec> deps;
    while (deps.size() < 1 + static_cast<std::size_t>(trial) % 3) {
      IntVec d(nest.depth());
      for (std::int64_t& x : d) x = comp(rng);
      if (!is_zero(d)) deps.push_back(d);
    }
    const std::vector<IntVec> sorted = rows.to_vectors();
    std::vector<std::size_t> perm(sorted.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<IntVec> shuffled;
    for (std::size_t i : perm) shuffled.push_back(sorted[i]);

    const ComputationStructure flat(std::move(rows), deps);
    const ComputationStructure q(shuffled, deps);
    ASSERT_EQ(q.vertices().size(), flat.vertices().size()) << "trial " << trial;
    EXPECT_EQ(q.dependence_arc_count(), flat.dependence_arc_count()) << "trial " << trial;
    for (std::size_t v = 0; v < perm.size(); ++v) {
      EXPECT_TRUE(same_point(q.row(v), flat.row(perm[v])));
      EXPECT_TRUE(same_point(flat.row(flat.id_at(v)), q.row(q.id_at(v))));
      EXPECT_EQ(flat.id_at(v), v);
      ASSERT_EQ(q.id_of(shuffled[v]), v) << "trial " << trial;
      EXPECT_EQ(flat.id_of(shuffled[v]), perm[v]);
      for (std::size_t k = 0; k < deps.size(); ++k) {
        const std::optional<std::size_t> a = q.arc_sink(v, k), b = flat.arc_sink(perm[v], k);
        ASSERT_EQ(a.has_value(), b.has_value()) << "trial " << trial;
        if (a) {
          EXPECT_EQ(perm[*a], *b);
        }
      }
    }
    ++built;
  }
  EXPECT_GE(built, 120u);
}

TEST(FlatStore, DuplicateAndVertexLimitKeepTheirErrors) {
  const auto message = [](auto&& build) -> std::string {
    try {
      build();
    } catch (const Error& e) {
      return std::string("Error: ") + e.what();
    } catch (const std::invalid_argument& e) {
      return std::string("invalid_argument: ") + e.what();
    }
    return "no error";
  };
  const std::string dup = "invalid_argument: ComputationStructure: duplicate vertex";
  // Sorted input with a repeat, unsorted input with a repeat, flat rows.
  EXPECT_EQ(message([] { ComputationStructure({{0, 0}, {0, 1}, {0, 1}}, {{0, 1}}); }), dup);
  EXPECT_EQ(message([] { ComputationStructure({{1, 1}, {0, 0}, {1, 1}}, {{0, 1}}); }), dup);
  EXPECT_EQ(message([] {
              PointRows rows(1);
              for (std::int64_t x : {3, 1, 2, 1}) rows.push_back(IntVec{x});
              ComputationStructure(std::move(rows), {{1}});
            }),
            dup);
  // 2^32 vertices exceed the 32-bit ids (zero-dimensional rows take no
  // memory); the refusal comes before any row is read.
  EXPECT_EQ(message([] {
              PointRows rows(0);
              rows.resize(std::size_t{1} << 32);
              ComputationStructure(std::move(rows), {});
            }),
            "Error: ComputationStructure: 4294967296 vertices exceed the 32-bit vertex-id limit");
}

TEST(VertexIndex, ArcColumnsFollowDependenceEntries) {
  // One column per analyzed Dependence entry, duplicates included; a
  // distance outside D is refused.
  const LoopNest nest = workloads::example_l1(4);
  const DependenceInfo info = analyze_dependences(nest);
  const ComputationStructure q = ComputationStructure::from_loop(nest);
  const std::vector<std::size_t> cols = q.arc_columns(info);
  ASSERT_EQ(cols.size(), info.dependences.size());
  for (std::size_t e = 0; e < cols.size(); ++e)
    EXPECT_EQ(q.dependences()[cols[e]], info.dependences[e].distance);
  DependenceInfo foreign = info;
  foreign.dependences.front().distance = {5, 5};
  EXPECT_THROW((void)q.arc_columns(foreign), std::invalid_argument);
}

TEST(IntVecHashTest, SmallStrideGridSpreadsAcrossBuckets) {
  // Regression for the pre-splitmix64 xor-mix combiner: on a small-stride
  // 3-d grid it produced hashes identical in their low bits, collapsing a
  // power-of-two bucket table to a handful of chains.  Require every grid
  // point to get a distinct hash AND the low 6 bits (a 64-bucket table) to
  // be reasonably occupied.
  IntVecHash h;
  std::set<std::size_t> hashes;
  std::set<std::size_t> low_bits;
  for (std::int64_t i = 0; i < 16; ++i)
    for (std::int64_t j = 0; j < 16; ++j)
      for (std::int64_t k = 0; k < 4; ++k) {
        std::size_t v = h(IntVec{i, j, k});
        hashes.insert(v);
        low_bits.insert(v & 63u);
      }
  EXPECT_EQ(hashes.size(), 16u * 16u * 4u);
  EXPECT_GE(low_bits.size(), 48u);
}

TEST(IntVecHashTest, LengthAndSignDisambiguate) {
  IntVecHash h;
  EXPECT_NE(h(IntVec{1, 2}), h(IntVec{1, 2, 0}));
  EXPECT_NE(h(IntVec{1}), h(IntVec{-1}));
  EXPECT_NE(h(IntVec{0, 1}), h(IntVec{1, 0}));
  EXPECT_NE(h(IntVec{}), h(IntVec{0}));
}

}  // namespace
}  // namespace hypart
