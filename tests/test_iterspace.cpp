// IterSpace unit tests plus randomized symbolic == dense properties: on
// random rectangular spaces (d <= 4) AND random affine-bounded spaces
// (d <= 3, slab-decomposed) every closed-form quantity — arc counts,
// schedule spans, projections, groupings, partition stats, TIGs, checker
// verdicts, and all three simulator accountings — must equal the value
// computed from the materialized point set exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>

#include "frontend/parser.hpp"
#include "graph/comp_structure.hpp"
#include "loop/index_set.hpp"
#include "loop/iter_space.hpp"
#include "mapping/tig.hpp"
#include "partition/checkers.hpp"
#include "partition/grouping.hpp"
#include "partition/symbolic.hpp"
#include "schedule/hyperplane.hpp"
#include "sim/exec_sim.hpp"
#include "topology/topology.hpp"
#include "workloads/workloads.hpp"
#include "sim_oracle.hpp"

namespace hypart {
namespace {

// ---- unit tests ------------------------------------------------------------

TEST(IterSpace, FloorCeilDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(7, -2), -4);
  EXPECT_EQ(floor_div(-7, -2), 3);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(7, -2), -3);
  EXPECT_EQ(ceil_div(-7, -2), 4);
  EXPECT_EQ(ceil_div(6, 3), 2);
}

TEST(IterSpace, SizeExtentContains) {
  IterSpace s({{1, 4}, {-2, 0}}, {{1, 0}});
  EXPECT_EQ(s.dimension(), 2u);
  EXPECT_EQ(s.extent(0), 4);
  EXPECT_EQ(s.extent(1), 3);
  EXPECT_EQ(s.size(), 12u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(s.contains({1, -2}));
  EXPECT_TRUE(s.contains({4, 0}));
  EXPECT_FALSE(s.contains({5, 0}));
  EXPECT_FALSE(s.contains({1, 1}));
  IterSpace degenerate({{3, 2}}, {{1}});
  EXPECT_TRUE(degenerate.empty());
  EXPECT_EQ(degenerate.size(), 0u);
}

TEST(IterSpace, SizeAtTheInt64BoundaryIsExactOnePastThrows) {
  // 153092023 * 60247241209 == 2^63 - 1: the largest representable size is
  // exact, one more column leaves int64 and throws instead of wrapping.
  IterSpace edge({{1, 153092023}, {1, 60247241209}}, {{1, 0}, {0, 1}});
  EXPECT_EQ(edge.size(), static_cast<std::uint64_t>(INT64_MAX));
  EXPECT_FALSE(edge.empty());
  EXPECT_EQ(edge.arc_count({1, 0}), std::uint64_t{153092022} * 60247241209);
  EXPECT_THROW((void)edge.total_arc_count(), ArithmeticError);  // the two counts' sum
  EXPECT_THROW(IterSpace({{1, 153092023}, {0, 60247241209}}, {{1, 0}}), ArithmeticError);
  // 2^22 cubed is 2^66, which a wrapping count read as 0: an empty space.
  const std::int64_t n = std::int64_t{1} << 22;
  EXPECT_THROW(IterSpace({{1, n}, {1, n}, {1, n}}, {{1, 0, 0}}), ArithmeticError);
}

TEST(IterSpace, ArcCountsMatchPaperL1) {
  // L1 on [1,4]^2 with D = {(0,1), (1,1), (1,0)}: 12 + 9 + 12 = 33 arcs.
  IterSpace s({{1, 4}, {1, 4}}, {{0, 1}, {1, 1}, {1, 0}});
  EXPECT_EQ(s.arc_count({0, 1}), 12u);
  EXPECT_EQ(s.arc_count({1, 1}), 9u);
  EXPECT_EQ(s.arc_count({1, 0}), 12u);
  EXPECT_EQ(s.total_arc_count(), 33u);
  // A dependence longer than the extent kills every arc.
  EXPECT_EQ(s.arc_count({4, 0}), 0u);
}

TEST(IterSpace, MinMaxStepAtCorners) {
  using Range = std::pair<std::int64_t, std::int64_t>;
  IterSpace s({{1, 4}, {1, 4}}, {{1, 0}});
  EXPECT_EQ(s.step_range({1, 1}), (Range{2, 8}));
  EXPECT_EQ(s.step_range({1, -2}), (Range{1 - 8, 4 - 2}));
  IterSpace empty({{1, 0}}, {{1}});
  EXPECT_THROW((void)empty.step_range({1}), std::logic_error);
  EXPECT_THROW((void)s.step_range({1}), std::invalid_argument);
}

TEST(IterSpace, LineRange) {
  IterSpace s({{1, 4}, {1, 4}}, {{1, 0}});
  // Anti-diagonal through (1,4): the whole diagonal, k = 0..3.
  auto r = s.line_range({1, 4}, {1, -1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{0}, std::int64_t{3}));
  // The same line addressed from outside the box: shifted k-interval.
  r = s.line_range({0, 5}, {1, -1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{1}, std::int64_t{4}));
  // A line that misses the box entirely.
  EXPECT_FALSE(s.line_range({10, 0}, {0, 1}).has_value());
  // Zero direction component must pin that coordinate inside the box.
  r = s.line_range({2, 3}, {0, 1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{-2}, std::int64_t{1}));
  EXPECT_FALSE(s.line_range({0, 3}, {0, 1}).has_value());
}

TEST(IterSpace, ForEachLineCoversBoxOnce) {
  IterSpace s({{1, 4}, {1, 4}}, {{1, 0}});
  const IntVec u{1, -1};
  std::vector<std::int64_t> pops;
  std::int64_t covered = 0;
  s.for_each_line(u, [&](const IntVec& rep) {
    // rep is the entry point: on the line, inside, with rep - u outside.
    EXPECT_TRUE(s.contains(rep));
    EXPECT_FALSE(s.contains({rep[0] - u[0], rep[1] - u[1]}));
    const std::int64_t pop = s.line_range(rep, u)->second + 1;
    pops.push_back(pop);
    covered += pop;
  });
  // 7 anti-diagonals with populations 1..4..1 covering all 16 points.
  EXPECT_EQ(pops.size(), 7u);
  std::sort(pops.begin(), pops.end());
  EXPECT_EQ(pops, (std::vector<std::int64_t>{1, 1, 2, 2, 3, 3, 4}));
  EXPECT_EQ(covered, 16);
}

TEST(IterSpace, TriangularMatvecDomain) {
  // Strictly lower-triangular domain j in [1, i-1], i in [1, 5]: ten points
  // in four slabs (the i = 1 slab is empty).
  std::vector<AffineDim> dims(2);
  dims[0] = {AffineExpr(1), AffineExpr(5)};
  dims[1] = {AffineExpr(1), AffineExpr::index(0, 1, -1)};
  IterSpace s = IterSpace::from_affine(dims, {{1, 0}, {0, 1}});
  EXPECT_FALSE(s.is_rectangular());
  EXPECT_EQ(s.sliced_dims(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(s.slab_count(), 4u);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_TRUE(s.contains({5, 4}));
  EXPECT_TRUE(s.contains({2, 1}));
  EXPECT_FALSE(s.contains({3, 3}));   // on the diagonal, outside
  EXPECT_FALSE(s.contains({1, 1}));   // row with an empty j-range
  EXPECT_THROW((void)s.bounds(), std::logic_error);
  EXPECT_THROW((void)s.extent(0), std::logic_error);
  // Hand counts: (0,1) arcs need j+1 <= i-1 (rows 3..5: 1+2+3); (1,0) arcs
  // need i+1 <= 5 and carry j <= i-1 into a longer row (rows 2..4: 1+2+3).
  EXPECT_EQ(s.arc_count({0, 1}), 6u);
  EXPECT_EQ(s.arc_count({1, 0}), 6u);
  EXPECT_EQ(s.total_arc_count(), 12u);
  // Π = (1,1) extremes: (2,1) -> 3 and (5,4) -> 9, at slab corners.
  EXPECT_EQ(s.step_range({1, 1}), std::make_pair(std::int64_t{3}, std::int64_t{9}));
  // The diagonal line through (2,1): (2,1),(3,2),(4,3),(5,4).
  auto r = s.line_range({2, 1}, {1, 1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::make_pair(std::int64_t{0}, std::int64_t{3}));
  // Line enumeration covers the triangle exactly once.
  std::int64_t covered = 0;
  std::size_t lines = 0;
  s.for_each_line({1, 1}, [&](const IntVec& rep) {
    EXPECT_TRUE(s.contains(rep));
    EXPECT_FALSE(s.contains({rep[0] - 1, rep[1] - 1}));
    covered += s.line_range(rep, {1, 1})->second + 1;
    ++lines;
  });
  EXPECT_EQ(covered, 10);
  EXPECT_EQ(lines, 4u);  // diagonals entering at (2,1),(3,1),(4,1),(5,1)
}

TEST(IterSpace, FromNestAcceptsAffineBounds) {
  IterSpace tri = IterSpace::from_nest(workloads::triangular_matvec(6));
  EXPECT_FALSE(tri.is_rectangular());
  EXPECT_EQ(tri.size(), 15u);  // 0+1+2+3+4+5
  EXPECT_EQ(tri.dependences().size(), 2u);

  // The skewed prism has the same 27 points as the 3^3 cube it came from,
  // sliced along i.
  IterSpace w = IterSpace::from_nest(workloads::skewed_wavefront3d(3));
  EXPECT_FALSE(w.is_rectangular());
  EXPECT_EQ(w.sliced_dims(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(w.slab_count(), 3u);
  EXPECT_EQ(w.size(), 27u);
  std::vector<IntVec> deps = w.dependences();
  std::sort(deps.begin(), deps.end());
  EXPECT_EQ(deps, (std::vector<IntVec>{{0, 0, 1}, {0, 1, 0}, {1, 1, 0}}));
}

TEST(IterSpace, SlabLookupsMatchBruteForceWhereKeysSkip) {
  // slab_at binary-searches the slabs, which init() enumerates in ascending
  // key order.  Its callers, arc_count and the line enumeration, look up
  // keys that are absent: outer indices whose inner range is empty (2-D),
  // and (i, j) pairs past a row's end with two sliced coordinates (3-D).
  // Both must match brute-force point enumeration.
  struct Case {
    std::string source;
    std::vector<std::size_t> sliced;
    std::vector<IntVec> probes;  ///< arc vectors and line directions
  };
  const std::vector<Case> cases = {
      // j's range is empty for i in {0, 1} and for i >= 8: keys 2..7 only.
      {"loop skip2 {\n  for i = 0 to 9\n  for j = 1 to min(i - 1, 8 - i)\n"
       "  A[i, j] = A[i-1, j] + A[i, j-1];\n}\n",
       {0},
       {{1, 0}, {0, 1}, {1, 1}, {1, -1}, {2, 1}, {-1, 2}, {3, 0}}},
      // k's bounds read i and j, so (i, j) keys the slabs; j's range is
      // empty for i >= 5 and shrinks with i before that.
      {"loop skip3 {\n  for i = 0 to 6\n  for j = i - 2 to 4 - i\n"
       "  for k = j to i + 3\n  A[i, j, k] = A[i-1, j, k] + A[i, j-1, k] + A[i, j, k-1];\n}\n",
       {0, 1},
       {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {1, -1, 0}, {0, 1, -1}, {2, 1, -1},
        {-1, 2, 1}}},
  };
  for (const Case& c : cases) {
    const LoopNest nest = parse_loop_nest(c.source);
    SCOPED_TRACE(nest.name());
    const IterSpace s(nest, analyze_dependences(nest).distance_vectors());
    ASSERT_EQ(s.sliced_dims(), c.sliced);
    const std::size_t n = s.dimension();

    // Slab keys (a box pins its sliced coordinates) strictly ascending.
    std::vector<IntVec> keys;
    s.for_each_slab_box([&](const std::vector<DimBounds>& box) {
      IntVec key;
      for (std::size_t d : s.sliced_dims()) {
        EXPECT_EQ(box[d].first, box[d].second);
        key.push_back(box[d].first);
      }
      keys.push_back(key);
    });
    ASSERT_EQ(keys.size(), s.slab_count());
    for (std::size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);

    // Brute force: every point of a box around the domain.
    std::vector<IntVec> points;
    IntVec p(n, -4);
    while (true) {
      if (s.contains(p)) points.push_back(p);
      std::size_t d = 0;
      while (d < n && p[d] == 12) p[d++] = -4;
      if (d == n) break;
      ++p[d];
    }
    ASSERT_EQ(points.size(), s.size());

    for (const IntVec& v : c.probes) {
      SCOPED_TRACE("probe " + to_string(v));
      std::uint64_t arcs = 0;
      std::map<IntVec, std::int64_t> want_lines;  // entry -> population
      for (const IntVec& q : points) {
        if (s.contains(add(q, v))) ++arcs;
        if (s.contains(sub(q, v))) continue;
        std::int64_t pop = 0;
        for (IntVec x = q; s.contains(x); x = add(x, v)) ++pop;
        want_lines[q] = pop;
      }
      EXPECT_EQ(s.arc_count(v), arcs);
      std::map<IntVec, std::int64_t> got_lines;
      s.for_each_line(v, [&](const IntVec& entry) {
        const auto range = s.line_range(entry, v);
        ASSERT_TRUE(range.has_value());
        EXPECT_EQ(range->first, 0);
        EXPECT_TRUE(got_lines.emplace(entry, range->second + 1).second) << "entry visited twice";
      });
      EXPECT_EQ(got_lines, want_lines);
    }
  }
}

// ---- randomized properties: symbolic == dense ------------------------------

std::vector<IntVec> enumerate_box(const std::vector<DimBounds>& bounds) {
  std::vector<IntVec> pts;
  IntVec p(bounds.size());
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == bounds.size()) {
      pts.push_back(p);
      return;
    }
    for (std::int64_t x = bounds[i].first; x <= bounds[i].second; ++x) {
      p[i] = x;
      rec(i + 1);
    }
  };
  rec(0);
  return pts;
}

std::map<std::tuple<std::size_t, std::size_t>, std::int64_t> digraph_edges(const Digraph& g) {
  std::map<std::tuple<std::size_t, std::size_t>, std::int64_t> out;
  for (std::size_t v = 0; v < g.vertex_count(); ++v)
    for (const Digraph::Edge& e : g.out_edges(v)) out[{v, e.to}] += e.weight;
  return out;
}

struct RandomCase {
  std::vector<DimBounds> bounds;
  std::vector<IntVec> deps;
};

RandomCase random_case(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> dim_dist(1, 4);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(1, 5),
      coef_dist(-2, 2), ndep_dist(1, 3);
  RandomCase c;
  const std::size_t dim = dim_dist(rng);
  for (std::size_t i = 0; i < dim; ++i) {
    std::int64_t lo = lo_dist(rng);
    c.bounds.push_back({lo, lo + extent_dist(rng) - 1});
  }
  // In 1-d only two distinct lex-positive vectors exist in the coefficient
  // range; asking for more would spin forever.
  const std::int64_t ndeps = std::min<std::int64_t>(ndep_dist(rng), dim == 1 ? 2 : 3);
  while (c.deps.size() < static_cast<std::size_t>(ndeps)) {
    IntVec d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = coef_dist(rng);
    // Lexicographically positive (a legal uniform dependence) and new.
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

/// Every stage on both backends, for any space/point-set pair (rectangular
/// or affine).  Returns false when no valid Π exists (nothing to compare).
bool check_all_stages(const IterSpace& space, const std::vector<IntVec>& pts,
                      const std::vector<IntVec>& cdeps, bool alt_hops) {
  const MachineParams machine{1.0, 50.0, 5.0};
  ComputationStructure q(pts, cdeps);

  EXPECT_EQ(space.size(), q.vertices().size());
  EXPECT_EQ(space.total_arc_count(), q.dependence_arc_count());
  for (const IntVec& d : cdeps) {
    std::size_t dense_arcs = 0;
    for (PointRef v : q.vertices()) {
      IntVec t(v.begin(), v.end());
      for (std::size_t i = 0; i < t.size(); ++i) t[i] += d[i];
      if (q.contains(t)) ++dense_arcs;
    }
    EXPECT_EQ(space.arc_count(d), dense_arcs) << to_string(d);
  }

  // Identical Π from both search paths (same candidate order, same spans).
    std::optional<TimeFunction> tf_sym = search_time_function(space);
    std::optional<TimeFunction> tf_dense = search_time_function(q);
    EXPECT_EQ(tf_sym.has_value(), tf_dense.has_value());
    if (!tf_sym || !tf_dense) return false;  // no valid Π in the search box
    EXPECT_EQ(tf_sym->pi, tf_dense->pi);
    const TimeFunction tf = *tf_sym;
    ScheduleProfile prof = profile_schedule(tf, q.vertices());
    EXPECT_EQ(space.step_range(tf.pi), std::make_pair(prof.first_step, prof.last_step));

    // Projection: bit-identical points, populations, and representatives.
    ProjectedStructure pd(q, tf);
    ProjectedStructure psym(space, tf);
    EXPECT_EQ(pd.points(), psym.points());
    if (pd.points() != psym.points()) return true;  // failure already recorded
    EXPECT_EQ(pd.line_direction(), psym.line_direction());
    EXPECT_EQ(pd.step_stride(), psym.step_stride());
    for (std::size_t i = 0; i < pd.point_count(); ++i) {
      EXPECT_EQ(pd.line_population(i), psym.line_population(i)) << i;
      EXPECT_EQ(pd.line_representative(i), psym.line_representative(i)) << i;
    }

    // Grouping is a deterministic function of the projected structure.
    Grouping gd = Grouping::compute(pd);
    Grouping gs = Grouping::compute(psym);
    EXPECT_EQ(gd.group_count(), gs.group_count());
    if (gd.group_count() != gs.group_count()) return true;
    for (std::size_t g = 0; g < gd.group_count(); ++g) {
      EXPECT_EQ(gd.groups()[g].members(), gs.groups()[g].members());
      EXPECT_EQ(gd.groups()[g].lattice, gs.groups()[g].lattice);
    }

    // Partition stats, block sizes, and checker verdicts.
    Partition part = Partition::build(q, gd);
    PartitionStats sd = compute_partition_stats(q, part);
    PartitionStats ss = compute_partition_stats(space, gs);
    EXPECT_EQ(sd.total_arcs, ss.total_arcs);
    EXPECT_EQ(sd.interblock_arcs, ss.interblock_arcs);
    EXPECT_EQ(sd.intrablock_arcs, ss.intrablock_arcs);
    EXPECT_EQ(digraph_edges(sd.block_comm), digraph_edges(ss.block_comm));
    std::vector<std::int64_t> bsizes = symbolic_block_sizes(gs);
    EXPECT_EQ(bsizes.size(), part.block_count());
    if (bsizes.size() != part.block_count()) return true;
    for (std::size_t b = 0; b < bsizes.size(); ++b)
      EXPECT_EQ(static_cast<std::size_t>(bsizes[b]), part.blocks()[b].iterations.size());
    EXPECT_EQ(check_exact_cover(space, gs), check_exact_cover(q, part));
    EXPECT_EQ(check_theorem1(space, gs), check_theorem1(q, tf, part));

    // TIG: same vertices, weights, and edge map.
    TaskInteractionGraph td = TaskInteractionGraph::from_partition(q, part, gd);
    TaskInteractionGraph ts = TaskInteractionGraph::from_symbolic(space, gs);
    EXPECT_EQ(td.vertex_count(), ts.vertex_count());
    if (td.vertex_count() != ts.vertex_count()) return true;
    for (std::size_t v = 0; v < td.vertex_count(); ++v) {
      EXPECT_EQ(td.compute_weight(v), ts.compute_weight(v));
      EXPECT_EQ(td.coordinates(v), ts.coordinates(v));
    }
    EXPECT_EQ(td.edges(), ts.edges());

    // All three simulator accountings, alternating hop charging.
    Hypercube cube(2);
    Mapping m;
    m.processor_count = cube.size();
    m.method = "round-robin";
    for (std::size_t b = 0; b < part.block_count(); ++b)
      m.block_to_proc.push_back(static_cast<ProcId>(b % m.processor_count));
    for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                               CommAccounting::LinkContention}) {
      SimOptions opts;
      opts.accounting = acc;
      opts.charge_hops = alt_hops;
      SimResult rd = simulate_execution(q, tf, part, m, cube, machine, opts);
      SimResult rs = simulate_execution(space, gs, m, cube, machine, opts);
      SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)));
      const SimResult want = oracle::simulate(q, tf, part, m, cube, machine, opts);
      oracle::expect_matches(rd, want);
      oracle::expect_matches(rs, want);
      EXPECT_EQ(rd.total, rs.total);
      EXPECT_EQ(rd.time, rs.time);
      EXPECT_EQ(rd.compute_bottleneck, rs.compute_bottleneck);
      EXPECT_EQ(rd.comm_bottleneck, rs.comm_bottleneck);
      EXPECT_EQ(rd.steps, rs.steps);
      EXPECT_EQ(rd.messages, rs.messages);
      EXPECT_EQ(rd.words, rs.words);
      EXPECT_EQ(rd.max_link_words, rs.max_link_words);
      EXPECT_EQ(rd.per_proc_iterations, rs.per_proc_iterations);
    }
  return true;
}

TEST(IterSpaceProperty, SymbolicEqualsDenseEverywhere) {
  std::mt19937 rng(12345);
  int checked = 0;
  for (int attempt = 0; attempt < 60 && checked < 30; ++attempt) {
    RandomCase c = random_case(rng);
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space(c.bounds, c.deps);
    if (check_all_stages(space, enumerate_box(c.bounds), c.deps, attempt % 2 == 1)) ++checked;
  }
  // The search box finds a Π for the overwhelming majority of lex-positive
  // dependence sets; make sure the property actually exercised many cases.
  EXPECT_GE(checked, 20);
}

// ---- affine (slab-decomposed) domains --------------------------------------

std::vector<IntVec> enumerate_affine(const std::vector<AffineDim>& dims) {
  std::vector<IntVec> pts;
  IntVec p(dims.size(), 0);
  std::function<void(std::size_t)> rec = [&](std::size_t j) {
    if (j == dims.size()) {
      pts.push_back(p);
      return;
    }
    const std::int64_t lo = dims[j].lower.evaluate_lower(p);
    const std::int64_t hi = dims[j].upper.evaluate_upper(p);
    for (std::int64_t x = lo; x <= hi; ++x) {
      p[j] = x;
      rec(j + 1);
    }
    p[j] = 0;
  };
  rec(0);
  return pts;
}

struct AffineCase {
  std::vector<AffineDim> dims;
  std::vector<IntVec> deps;
};

/// Random affine-bounded domain, d <= 3: dimension 0 is constant; each later
/// dimension's lower/upper bound references one random earlier dimension
/// with slope in {-1, 0, 1} (independent per bound, so slab extents vary and
/// some slabs come out empty).
AffineCase random_affine_case(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> dim_dist(2, 3);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(1, 5),
      coef_dist(-2, 2), slope_dist(-1, 1), ndep_dist(1, 3);
  AffineCase c;
  const std::size_t dim = dim_dist(rng);
  for (std::size_t j = 0; j < dim; ++j) {
    AffineExpr lower(lo_dist(rng));
    AffineExpr upper(lower.constant + extent_dist(rng) - 1);
    if (j > 0) {
      std::uniform_int_distribution<std::size_t> which(0, j - 1);
      lower.coeffs.assign(j, 0);
      lower.coeffs[which(rng)] = slope_dist(rng);
      upper.coeffs.assign(j, 0);
      upper.coeffs[which(rng)] = slope_dist(rng);
    }
    c.dims.push_back({std::move(lower), std::move(upper)});
  }
  const std::size_t ndeps = static_cast<std::size_t>(ndep_dist(rng));
  while (c.deps.size() < ndeps) {
    IntVec d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = coef_dist(rng);
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

/// Random disjunctive-bounded domain, d <= 3: like random_affine_case, but
/// at least one non-outer bound carries TWO affine terms (a genuine
/// max(...)/min(...) bound), so the slab decomposition must split on the
/// comparison hyperplane where the active term changes.
AffineCase random_disjunctive_case(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> dim_dist(2, 3);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(2, 6),
      coef_dist(-2, 2), slope_dist(-1, 1), ndep_dist(1, 3);
  std::uniform_int_distribution<int> two_dist(0, 1);
  AffineCase c;
  const std::size_t dim = dim_dist(rng);
  for (std::size_t j = 0; j < dim; ++j) {
    const std::int64_t lo = lo_dist(rng);
    const std::int64_t hi = lo + extent_dist(rng) - 1;
    if (j == 0) {
      c.dims.push_back({AffineExpr(lo), AffineExpr(hi)});
      continue;
    }
    std::uniform_int_distribution<std::size_t> which(0, j - 1);
    auto term = [&](std::int64_t cst) {
      AffineExpr e(cst);
      e.coeffs.assign(j, 0);
      e.coeffs[which(rng)] = slope_dist(rng);
      return e;
    };
    // The last dimension always gets a two-term bound on at least one side;
    // earlier dimensions flip a coin per side.
    const bool force = j == dim - 1;
    BoundExpr lower = (force || two_dist(rng) == 1) ? bmax(term(lo), term(lo))
                                                    : BoundExpr(term(lo));
    BoundExpr upper = (force || two_dist(rng) == 1) ? bmin(term(hi), term(hi))
                                                    : BoundExpr(term(hi));
    c.dims.push_back({std::move(lower), std::move(upper)});
  }
  const std::size_t ndeps = static_cast<std::size_t>(ndep_dist(rng));
  while (c.deps.size() < ndeps) {
    IntVec d(dim);
    for (std::size_t i = 0; i < dim; ++i) d[i] = coef_dist(rng);
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end()) continue;
    if (*nz < 0)
      for (std::int64_t& x : d) x = -x;
    if (std::find(c.deps.begin(), c.deps.end(), d) == c.deps.end()) c.deps.push_back(d);
  }
  return c;
}

TEST(IterSpaceProperty, SymbolicEqualsDenseOnAffineDomains) {
  std::mt19937 rng(98765);
  int checked = 0, sliced = 0;
  for (int attempt = 0; attempt < 120 && checked < 30; ++attempt) {
    AffineCase c = random_affine_case(rng);
    std::vector<IntVec> pts = enumerate_affine(c.dims);
    if (pts.empty()) continue;  // ComputationStructure rejects empty spaces
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space = IterSpace::from_affine(c.dims, c.deps);
    ASSERT_EQ(space.size(), pts.size());
    if (!space.is_rectangular()) ++sliced;
    if (check_all_stages(space, pts, c.deps, attempt % 2 == 1)) ++checked;
  }
  EXPECT_GE(checked, 20);
  // The generator must actually produce slab-decomposed (non-box) domains.
  EXPECT_GE(sliced, 10);
}

TEST(IterSpaceProperty, SymbolicEqualsDenseOnDisjunctiveDomains) {
  std::mt19937 rng(424242);
  int checked = 0, multi_term = 0;
  for (int attempt = 0; attempt < 160 && checked < 30; ++attempt) {
    AffineCase c = random_disjunctive_case(rng);
    std::vector<IntVec> pts = enumerate_affine(c.dims);
    if (pts.empty()) continue;  // ComputationStructure rejects empty spaces
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space = IterSpace::from_affine(c.dims, c.deps);
    ASSERT_EQ(space.size(), pts.size());
    bool has_multi = false;
    for (const AffineDim& d : c.dims)
      has_multi = has_multi || !d.lower.single() || !d.upper.single();
    if (has_multi) ++multi_term;
    if (check_all_stages(space, pts, c.deps, attempt % 2 == 1)) ++checked;
  }
  EXPECT_GE(checked, 20);
  // Every case carries at least one genuine max/min bound by construction.
  EXPECT_GE(multi_term, 20);
}

TEST(IterSpace, DisjunctiveWorkloadsSizeAndSlabs) {
  // Pyramid: sum_{i=0..12} (min(i, 12-i) + 1) = 2*(1+..+6) + 7 = 49.
  IterSpace pyr = IterSpace::from_nest(workloads::pyramid_stencil(12));
  EXPECT_FALSE(pyr.is_rectangular());
  EXPECT_EQ(pyr.size(), 49u);
  // Banded FW: rows clip at both edges of the 11x11 square, band 3.
  IterSpace fw = IterSpace::from_nest(workloads::floyd_warshall_band(10, 3));
  std::uint64_t expect = 0;
  for (std::int64_t i = 0; i <= 10; ++i)
    expect += static_cast<std::uint64_t>(std::min<std::int64_t>(10, i + 3) -
                                         std::max<std::int64_t>(0, i - 3) + 1);
  EXPECT_EQ(fw.size(), expect);
}

// ---- compiled line forms ----------------------------------------------------

/// Determinant of the square matrix whose columns are `cols` (n = 2 or 3).
std::int64_t det(const std::vector<IntVec>& cols) {
  if (cols.size() == 2) return cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0];
  const IntVec& a = cols[0];
  const IntVec& b = cols[1];
  const IntVec& c = cols[2];
  return a[0] * (b[1] * c[2] - b[2] * c[1]) - b[0] * (a[1] * c[2] - a[2] * c[1]) +
         c[0] * (a[1] * b[2] - a[2] * b[1]);
}

/// n - 1 small generators completing u to a unimodular basis (g_0, [g_1,] u).
std::vector<IntVec> unimodular_generators(const IntVec& u) {
  const std::size_t n = u.size();
  std::vector<IntVec> small;
  IntVec v(n, -2);
  while (true) {
    if (!is_zero(v)) small.push_back(v);
    std::size_t i = 0;
    while (i < n && v[i] == 2) v[i++] = -2;
    if (i == n) break;
    ++v[i];
  }
  for (const IntVec& g0 : small) {
    if (n == 2) {
      const std::int64_t d = det({g0, u});
      if (d == 1 || d == -1) return {g0};
      continue;
    }
    for (const IntVec& g1 : small) {
      const std::int64_t d = det({g0, g1, u});
      if (d == 1 || d == -1) return {g0, g1};
    }
  }
  return {};
}

/// Line coordinate x of point j: j = origin + Σ x_i·gens_i + k·u, by
/// Cramer's rule (the basis is unimodular, so x is integral).
IntVec line_coordinate(const IntVec& j, const IntVec& origin, const std::vector<IntVec>& gens,
                       const IntVec& u) {
  std::vector<IntVec> basis = gens;
  basis.push_back(u);
  const std::int64_t d = det(basis);
  const IntVec rhs = sub(j, origin);
  IntVec x(gens.size());
  for (std::size_t i = 0; i < gens.size(); ++i) {
    std::vector<IntVec> m = basis;
    m[i] = rhs;
    x[i] = det(m) / d;
  }
  return x;
}

/// Every line coordinate in the populated box ±3 gives line_range's answer
/// at the line's anchor, unpopulated lines (nullopt) included.  Returns the
/// number of populated lines checked.
std::size_t expect_line_form_matches(const IterSpace& space, const std::vector<IntVec>& pts,
                                     const IntVec& pi, const IntVec& origin) {
  const std::int64_t g = content(pi);
  IntVec u = pi;
  for (std::int64_t& x : u) x /= g;
  const std::vector<IntVec> gens = unimodular_generators(u);
  EXPECT_EQ(gens.size(), pi.size() - 1);
  if (gens.size() != pi.size() - 1) return 0;
  const LineForm form = space.line_form(origin, gens, u);
  IntVec lo(gens.size(), INT64_MAX), hi(gens.size(), INT64_MIN);
  for (const IntVec& j : pts) {
    const IntVec x = line_coordinate(j, origin, gens, u);
    for (std::size_t i = 0; i < x.size(); ++i) {
      lo[i] = std::min(lo[i], x[i]);
      hi[i] = std::max(hi[i], x[i]);
    }
  }
  std::size_t populated = 0;
  auto check = [&](std::int64_t x0, std::int64_t x1) {
    IntVec anchor = add(origin, scale(gens[0], x0));
    if (gens.size() == 2) anchor = add(anchor, scale(gens[1], x1));
    const auto want = space.line_range(anchor, u);
    EXPECT_EQ(form.range(x0, x1), want) << "pi=" << to_string(pi) << " x=(" << x0 << "," << x1
                                        << ")";
    if (want) ++populated;
  };
  for (std::int64_t x0 = lo[0] - 3; x0 <= hi[0] + 3; ++x0) {
    if (gens.size() == 1) {
      check(x0, 0);
      continue;
    }
    for (std::int64_t x1 = lo[1] - 3; x1 <= hi[1] + 3; ++x1) check(x0, x1);
  }
  return populated;
}

TEST(IterSpaceProperty, CompiledLineFormMatchesLineRange) {
  // Random affine (triangular) and disjunctive (max/min) nests in 2-D and
  // 3-D under unit and non-unit line directions, plus the affine workloads.
  const std::vector<IntVec> pis2 = {{1, 1}, {2, 1}, {1, 3}, {1, -1}, {0, 1}, {3, 2}};
  const std::vector<IntVec> pis3 = {{1, 1, 1}, {2, 1, 1}, {1, 3, 2}, {0, 1, 1}, {2, 2, 1}};
  std::mt19937 rng(31337);
  std::uniform_int_distribution<std::int64_t> origin_dist(-3, 3);
  std::size_t lines = 0, cases = 0, three_d = 0;
  for (int attempt = 0; attempt < 80; ++attempt) {
    AffineCase c = attempt % 2 == 0 ? random_affine_case(rng) : random_disjunctive_case(rng);
    std::vector<IntVec> pts = enumerate_affine(c.dims);
    if (pts.empty()) continue;
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    IterSpace space = IterSpace::from_affine(c.dims, c.deps);
    const std::vector<IntVec>& pis = c.dims.size() == 2 ? pis2 : pis3;
    IntVec origin(c.dims.size());
    for (std::int64_t& x : origin) x = origin_dist(rng);
    lines += expect_line_form_matches(space, pts, pis[static_cast<std::size_t>(attempt) % pis.size()],
                                      origin);
    ++cases;
    if (c.dims.size() == 3) ++three_d;
  }
  for (const LoopNest& nest : {workloads::triangular_matvec(9), workloads::pyramid_stencil(12),
                               workloads::floyd_warshall_band(10, 3)}) {
    SCOPED_TRACE(nest.name());
    IterSpace space = IterSpace::from_nest(nest);
    const std::vector<IntVec> pts = IndexSet(nest).points().to_vectors();
    for (const IntVec& pi : pis2) lines += expect_line_form_matches(space, pts, pi, {0, 0});
  }
  {
    const LoopNest nest = workloads::lu_decomposition(6);
    IterSpace space = IterSpace::from_nest(nest);
    const std::vector<IntVec> pts = IndexSet(nest).points().to_vectors();
    for (const IntVec& pi : pis3) lines += expect_line_form_matches(space, pts, pi, {1, -2, 0});
  }
  EXPECT_GE(cases, 40u);
  EXPECT_GE(three_d, 10u);
  EXPECT_GE(lines, 1000u);
}

}  // namespace
}  // namespace hypart
