// Reference implementations of the dense planning path's indexes, in the
// direct form: J^n by recursion over the loop bounds, Π by scanning every
// point for every candidate, a hash map from vertex to id, a
// std::map-keyed projection that projects vertex by vertex, and region
// growing over IntVec lattice nodes with a hash-set visited set.
// Production indexes points by id (flat rows, sorted orders, binary
// search, line ends, flat arenas); these oracles answer the same questions
// without sharing any of that code, so a disagreement points at the
// production side.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/comp_structure.hpp"
#include "loop/loop_nest.hpp"
#include "partition/grouping.hpp"
#include "partition/projection.hpp"
#include "schedule/hyperplane.hpp"

namespace hypart::oracle {

/// A random structure for the index oracles: every point of [-3, 3]^dim
/// kept with probability 0.6 (holes, negative coordinates), in
/// lexicographic order on even trials and shuffled on odd ones; a random
/// nonzero Π; 1-4 dependences with Π·d > 0 (negative components allowed)
/// plus a repeat of the first.  dim cycles through 1..max_dim.
struct RandomStructure {
  std::vector<IntVec> verts;
  std::vector<IntVec> deps;
  TimeFunction tf;
};

inline RandomStructure random_structure(std::mt19937_64& rng, int trial, std::size_t max_dim) {
  std::uniform_int_distribution<std::int64_t> comp(-2, 2);
  std::bernoulli_distribution keep(0.6);
  const std::size_t dim = 1 + static_cast<std::size_t>(trial) % max_dim;
  RandomStructure rs;
  IntVec p(dim, -3);
  while (true) {
    if (keep(rng)) rs.verts.push_back(p);
    std::size_t c = dim;
    while (c > 0 && p[c - 1] == 3) p[--c] = -3;
    if (c == 0) break;
    ++p[c - 1];
  }
  if (rs.verts.empty()) rs.verts.push_back(IntVec(dim, 0));
  if (trial % 2 == 1) std::shuffle(rs.verts.begin(), rs.verts.end(), rng);
  do {
    rs.tf.pi.assign(dim, 0);
    for (std::int64_t& x : rs.tf.pi) x = comp(rng);
  } while (is_zero(rs.tf.pi));
  const std::size_t ndeps = 1 + static_cast<std::size_t>(trial) % 4;
  while (rs.deps.size() < ndeps) {
    IntVec d(dim);
    for (std::int64_t& x : d) x = comp(rng);
    if (dot(rs.tf.pi, d) > 0) rs.deps.push_back(d);
  }
  rs.deps.push_back(rs.deps.front());
  return rs;
}

/// A random affine nest of depth 1-4: the outermost loop has constant
/// bounds, every inner bound is c + s * (one earlier index) with slope s in
/// {-1, 0, 1}, so inner ranges shift, shrink and come out empty.
inline LoopNest random_affine_nest(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> depth_dist(1, 4), pick(0, 3);
  std::uniform_int_distribution<std::int64_t> lo_dist(-3, 3), extent_dist(-1, 4),
      slope_dist(-1, 1);
  const std::size_t depth = depth_dist(rng);
  LoopNestBuilder b("random_affine");
  std::vector<AffineExpr> subs;
  for (std::size_t j = 0; j < depth; ++j) {
    AffineExpr lower(lo_dist(rng));
    AffineExpr upper(lower.constant + extent_dist(rng));
    if (j > 0) {
      lower = lower + slope_dist(rng) * idx(pick(rng) % j);
      upper = upper + slope_dist(rng) * idx(pick(rng) % j);
    }
    b.loop("i" + std::to_string(j), lower, upper);
    subs.push_back(idx(j));
  }
  return b.statement("S").write("A", subs).build();
}

/// J^n by plain recursion over the bound expressions, in lexicographic
/// order.
inline std::vector<IntVec> enumerate_points(const LoopNest& nest) {
  const std::vector<LoopDim>& dims = nest.dims();
  std::vector<IntVec> pts;
  IntVec p(dims.size(), 0);
  auto rec = [&](auto&& self, std::size_t j) -> void {
    if (j == dims.size()) {
      pts.push_back(p);
      return;
    }
    const std::int64_t lo = dims[j].lower.evaluate_lower(p), hi = dims[j].upper.evaluate_upper(p);
    for (std::int64_t x = lo; x <= hi; ++x) {
      p[j] = x;
      self(self, j + 1);
    }
    p[j] = 0;
  };
  rec(rec, 0);
  return pts;
}

/// Lamport's Π by brute force: every nonzero candidate of the search box
/// that is valid for deps, its span taken over every point with checked
/// arithmetic (so an overflow raises ArithmeticError), the best by
/// (span, Π·Π, Π) in that order.
inline std::optional<TimeFunction> search_all_points(const std::vector<IntVec>& points,
                                                     const std::vector<IntVec>& deps,
                                                     std::size_t dim,
                                                     const TimeFunctionSearchOptions& opts) {
  const std::int64_t lo = opts.nonnegative_only ? 0 : -opts.max_coefficient;
  std::optional<std::tuple<std::int64_t, std::int64_t, IntVec>> best;
  IntVec cand(dim, lo);
  auto rec = [&](auto&& self, std::size_t j) -> void {
    if (j < dim) {
      for (std::int64_t c = lo; c <= opts.max_coefficient; ++c) {
        cand[j] = c;
        self(self, j + 1);
      }
      return;
    }
    if (is_zero(cand)) return;
    for (const IntVec& d : deps)
      if (dot(cand, d) <= 0) return;
    std::int64_t first = 0, last = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::int64_t s = dot(cand, points[i]);
      if (i == 0 || s < first) first = s;
      if (i == 0 || s > last) last = s;
    }
    auto key = std::make_tuple(last - first + 1, dot(cand, cand), cand);
    if (!best || key < *best) best = key;
  };
  rec(rec, 0);
  if (!best) return std::nullopt;
  return TimeFunction{std::get<2>(*best)};
}

/// Vertex -> id by hashing; throws std::invalid_argument on a duplicate.
inline std::unordered_map<IntVec, std::size_t, IntVecHash> vertex_index(
    const std::vector<IntVec>& verts) {
  std::unordered_map<IntVec, std::size_t, IntVecHash> index;
  for (std::size_t i = 0; i < verts.size(); ++i)
    if (!index.emplace(verts[i], i).second)
      throw std::invalid_argument("oracle::vertex_index: duplicate vertex");
  return index;
}

/// Q^p by projecting every vertex into an ordered map: lexicographic
/// points, line populations, smallest-step representatives, and the point
/// id of every vertex.
struct Projection {
  std::vector<IntVec> points;
  std::vector<std::size_t> populations;
  std::vector<IntVec> representatives;
  std::vector<std::size_t> vertex_points;
};

inline Projection project(const ComputationStructure& q, const TimeFunction& tf) {
  const ProjectionFrame frame(q.dependences(), tf);
  struct LineAccum {
    std::size_t count = 0;
    IntVec rep;
  };
  std::map<IntVec, LineAccum> lines;
  for (PointRef row : q.vertices()) {
    const IntVec v(row.begin(), row.end());
    LineAccum& acc = lines[frame.project(v)];
    if (acc.count == 0 || tf.step_of(v) < tf.step_of(acc.rep)) acc.rep = v;
    ++acc.count;
  }
  Projection p;
  std::map<IntVec, std::size_t> id_of;
  for (const auto& [pt, acc] : lines) {
    id_of.emplace(pt, p.points.size());
    p.points.push_back(pt);
    p.populations.push_back(acc.count);
    p.representatives.push_back(acc.rep);
  }
  for (PointRef v : q.vertices()) p.vertex_points.push_back(id_of.at(frame.project(v)));
  return p;
}

/// Steps 3-5 as IntVec breadth-first region growing over the group-base
/// lattice: point lookups through a std::map of ps.points(), the visited
/// set an unordered_set of bases.  Steps 1-2 come from choose_grouping.
inline std::vector<Group> region_growing(const ProjectedStructure& ps,
                                         const GroupingOptions& opts) {
  const std::vector<IntVec>& pts = ps.points();
  const std::vector<IntVec>& pdeps = ps.projected_deps_scaled();
  std::map<IntVec, std::size_t> id_of;
  for (std::size_t i = 0; i < pts.size(); ++i) id_of.emplace(pts[i], i);
  auto find = [&](const IntVec& x) -> std::optional<std::size_t> {
    auto it = id_of.find(x);
    if (it == id_of.end()) return std::nullopt;
    return it->second;
  };

  const GroupingChoice c = choose_grouping(ps.frame(), opts);
  std::vector<Group> groups;
  std::vector<bool> grouped(pts.size(), false);
  if (!c.grouping) {
    for (std::size_t p = 0; p < pts.size(); ++p) groups.push_back({pts[p], {p}, {}, p});
    return groups;
  }
  const IntVec& slot_step = pdeps[*c.grouping];
  std::vector<IntVec> steps{scale(slot_step, c.r)};
  for (std::size_t k : c.aux) steps.push_back(pdeps[k]);

  // The walk's bounding box: the points' box widened by (r+1)|step|.
  IntVec lo = pts.front(), hi = pts.front();
  for (const IntVec& p : pts)
    for (std::size_t i = 0; i < p.size(); ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  for (std::size_t i = 0; i < lo.size(); ++i) {
    std::int64_t margin = 1;
    for (const IntVec& s : steps) margin = std::max(margin, (c.r + 1) * std::abs(s[i]));
    lo[i] -= margin;
    hi[i] += margin;
  }
  auto in_box = [&](const IntVec& p) {
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    return true;
  };

  std::unordered_set<IntVec, IntVecHash> visited;
  std::size_t explicit_cursor = 0;
  std::size_t component = 0;
  auto next_seed = [&]() -> std::optional<std::size_t> {
    if (opts.seed_policy == SeedPolicy::ExplicitBases)
      while (explicit_cursor < opts.explicit_bases.size()) {
        std::optional<std::size_t> id = find(opts.explicit_bases[explicit_cursor++]);
        if (id && !grouped[*id]) return id;
      }
    for (std::size_t p = 0; p < pts.size(); ++p)
      if (!grouped[p]) return p;
    return std::nullopt;
  };
  while (std::optional<std::size_t> seed = next_seed()) {
    std::deque<std::pair<IntVec, IntVec>> frontier{{pts[*seed], IntVec(steps.size(), 0)}};
    visited.insert(pts[*seed]);
    while (!frontier.empty()) {
      auto [base, lattice] = frontier.front();
      frontier.pop_front();
      Group g{base, std::vector<std::optional<std::size_t>>(static_cast<std::size_t>(c.r)),
              lattice, component};
      bool populated = false;
      IntVec slot = base;
      for (std::size_t k = 0; k < g.slots.size(); ++k, slot = add(slot, slot_step)) {
        std::optional<std::size_t> id = find(slot);
        if (id && !grouped[*id]) {
          g.slots[k] = id;
          grouped[*id] = true;
          populated = true;
        }
      }
      if (populated) groups.push_back(g);
      for (std::size_t dir = 0; dir < steps.size(); ++dir)
        for (int sign : {+1, -1}) {
          IntVec nb = sign > 0 ? add(base, steps[dir]) : sub(base, steps[dir]);
          if (!in_box(nb) || !visited.insert(nb).second) continue;
          IntVec nl = lattice;
          nl[dir] += sign;
          frontier.emplace_back(nb, nl);
        }
    }
    ++component;
  }
  return groups;
}

}  // namespace hypart::oracle
