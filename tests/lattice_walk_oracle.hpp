// Per-line reference walk of a GroupLattice: every line's k-range and every
// dependence-shifted range come from one IterSpace::line_range query each,
// at the line's anchor and at the anchor moved by the dependence — the
// direct definition the compiled walker (per-coset LineForm rows plus the
// cosets × deps shift table) must reproduce value for value and in the same
// order.  The lattice frame is read back through the run table and the line
// anchors only; a target line's group is found by its projected point.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "partition/group_lattice.hpp"

namespace hypart::oracle {

using GroupKey = GroupLattice::GroupKey;
using GroupOffset = LatticeSweepResult::GroupOffset;
using KRange = std::optional<std::pair<std::int64_t, std::int64_t>>;

/// Scaled projection s·x - (Π·x)·Π of a point: one key per line.
inline IntVec project_line(const GroupLattice& gl, const IntVec& x) {
  const IntVec& pi = gl.time_function().pi;
  return sub(scale(x, dot(pi, pi)), scale(pi, dot(pi, x)));
}

/// visit(src, src_range, step_anchor, dep_range(k), dep_group(k),
/// dep_target(k)) for every populated line, in walk order.  dep_target is
/// nullopt when d_k ∥ Π or the target line is unpopulated; dep_group(k) is
/// the target line's group when it is populated.
template <class Visit>
void walk_lines(const GroupLattice& gl, Visit&& visit) {
  const IterSpace& space = gl.space();
  const IntVec& u = gl.line_direction();
  const IntVec& pi = gl.time_function().pi;
  const std::vector<IntVec>& deps = gl.original_deps();
  const std::int64_t r = gl.group_size_r();
  auto key = [&](const GroupLattice::Run& run, std::int64_t t) {
    return gl.degenerate() ? GroupKey{t, 0, t} : GroupKey{floor_div(t, r), run.b, run.comp};
  };
  std::map<IntVec, GroupKey> group_of_line;
  for (const GroupLattice::Run& run : gl.runs())
    for (std::int64_t t = run.t_lo; t <= run.t_hi; ++t)
      group_of_line[project_line(gl, gl.line_anchor(run.comp, t, run.b))] = key(run, t);
  for (const GroupLattice::Run& run : gl.runs()) {
    for (std::int64_t t = run.t_lo; t <= run.t_hi; ++t) {
      const IntVec p = gl.line_anchor(run.comp, t, run.b);
      const KRange range = space.line_range(p, u);
      if (!range) continue;
      auto dep_range = [&](std::size_t k) { return space.line_range(add(p, deps[k]), u); };
      auto dep_group = [&](std::size_t k) -> std::optional<GroupKey> {
        auto it = group_of_line.find(project_line(gl, add(p, deps[k])));
        if (it == group_of_line.end()) return std::nullopt;
        return it->second;
      };
      auto dep_target = [&](std::size_t k) -> std::optional<GroupKey> {
        if (is_zero(gl.projected_dep_scaled(k))) return std::nullopt;
        return dep_group(k);
      };
      visit(key(run, t), *range, dot(pi, p), dep_range, dep_group, dep_target);
    }
  }
}

/// Reference for the lines of GroupLattice::for_each_line_and_bundle:
/// visit(group, pop, first_step).
template <class Visit>
void for_each_line(const GroupLattice& gl, Visit&& visit) {
  walk_lines(gl, [&](const GroupKey& g, std::pair<std::int64_t, std::int64_t> range,
                     std::int64_t step_anchor, const auto&, const auto&, const auto&) {
    visit(g, range.second - range.first + 1, step_anchor + range.first * gl.step_stride());
  });
}

/// Reference for the bundles of GroupLattice::for_each_line_and_bundle:
/// visit(src, dst, dep, count, first_step).
template <class Visit>
void for_each_arc_bundle(const GroupLattice& gl, Visit&& visit) {
  const std::size_t nd = gl.original_deps().size();
  walk_lines(gl, [&](const GroupKey& g, std::pair<std::int64_t, std::int64_t> range,
                     std::int64_t step_anchor, const auto& dep_range, const auto& dep_group,
                     const auto&) {
    for (std::size_t k = 0; k < nd; ++k) {
      const KRange mrange = dep_range(k);
      if (!mrange) continue;
      const std::int64_t lo = std::max(range.first, mrange->first);
      const std::int64_t hi = std::min(range.second, mrange->second);
      if (lo > hi) continue;
      visit(g, dep_group(k).value(), k, hi - lo + 1, step_anchor + lo * gl.step_stride());
    }
  });
}

/// Reference for GroupLattice::sweep: the same bookkeeping over the
/// per-line queries.
inline LatticeSweepResult sweep(const GroupLattice& gl, bool validate) {
  LatticeSweepResult out;
  const std::size_t nd = gl.original_deps().size();
  const std::int64_t sigma = gl.step_stride();
  const std::optional<std::size_t> l = gl.grouping_vector_index();
  const std::optional<std::size_t> ax = gl.auxiliary_vector_index();
  auto is_special = [&](std::size_t k) {
    if (!l) return false;
    const IntVec& pk = gl.projected_dep_scaled(k);
    if (k == *l || pk == gl.projected_dep_scaled(*l)) return true;
    return ax && (k == *ax || pk == gl.projected_dep_scaled(*ax));
  };
  struct LineRec {
    std::int64_t first_step, pop;
  };
  std::vector<LineRec> window;
  std::vector<std::vector<GroupOffset>> dep_offs(nd);
  std::int64_t acc = 0;
  bool group_open = false;
  GroupKey cur{};
  out.theorem1 = true;
  out.lemmas.lemma2_holds = true;
  out.lemmas.lemma3_holds = true;
  out.stats.min_block = std::numeric_limits<std::int64_t>::max();
  std::uint64_t covered = 0;
  std::size_t arc_total = 0, arc_inter = 0;
  auto insert = [](std::vector<GroupOffset>& set, const GroupOffset& off) {
    if (std::find(set.begin(), set.end(), off) == set.end()) set.push_back(off);
  };
  auto close_group = [&]() {
    if (!group_open) return;
    ++out.stats.group_count;
    out.stats.min_block = std::min(out.stats.min_block, acc);
    out.stats.max_block = std::max(out.stats.max_block, acc);
    if (validate) {
      std::vector<GroupOffset> succ;
      for (std::size_t k = 0; k < nd; ++k) {
        if (is_zero(gl.projected_dep_scaled(k))) continue;
        const std::size_t fan = dep_offs[k].size();
        if (is_special(k)) {
          out.lemmas.worst_lemma2_fanout = std::max(out.lemmas.worst_lemma2_fanout, fan);
          if (fan > 1) out.lemmas.lemma2_holds = false;
        } else {
          out.lemmas.worst_lemma3_fanout = std::max(out.lemmas.worst_lemma3_fanout, fan);
          if (fan > 2) out.lemmas.lemma3_holds = false;
        }
        for (const GroupOffset& off : dep_offs[k]) insert(succ, off);
        dep_offs[k].clear();
      }
      out.theorem2.max_out_degree = std::max(out.theorem2.max_out_degree, succ.size());
    }
    window.clear();
    acc = 0;
  };
  walk_lines(gl, [&](const GroupKey& g, std::pair<std::int64_t, std::int64_t> range,
                     std::int64_t step_anchor, const auto& dep_range, const auto&,
                     const auto& dep_target) {
    if (!group_open || !(g == cur)) {
      close_group();
      group_open = true;
      cur = g;
    }
    const std::int64_t pop = range.second - range.first + 1;
    const std::int64_t first_step = step_anchor + range.first * sigma;
    covered += static_cast<std::uint64_t>(pop);
    acc += pop;
    if (validate) {
      for (const LineRec& o : window) {
        const std::int64_t diff = first_step - o.first_step;
        if (diff % sigma != 0) continue;
        const std::int64_t msh = diff / sigma;
        if (msh >= -(pop - 1) && msh <= o.pop - 1) out.theorem1 = false;
      }
      window.push_back(LineRec{first_step, pop});
    }
    for (std::size_t k = 0; k < nd; ++k) {
      GroupOffset off{};
      const std::optional<GroupKey> dst = dep_target(k);
      if (dst) off = GroupOffset{dst->a - g.a, dst->b - g.b, dst->comp - g.comp};
      const KRange mrange = dep_range(k);
      if (mrange) {
        const std::int64_t lo = std::max(range.first, mrange->first);
        const std::int64_t hi = std::min(range.second, mrange->second);
        if (lo <= hi) {
          const std::size_t count = static_cast<std::size_t>(hi - lo + 1);
          arc_total += count;
          if (!(off == GroupOffset{})) arc_inter += count;
          out.offset_weights[{k, off}] += hi - lo + 1;
        }
      }
      if (validate && dst && !(off == GroupOffset{})) insert(dep_offs[k], off);
    }
  });
  close_group();
  out.stats.total_iterations = covered;
  if (out.stats.group_count == 0) out.stats.min_block = 0;
  out.partition.total_arcs = arc_total;
  out.partition.interblock_arcs = arc_inter;
  out.partition.intrablock_arcs = arc_total - arc_inter;
  out.exact_cover = covered == gl.space().size();
  if (validate) {
    out.theorem2.m = nd;
    out.theorem2.beta = gl.beta();
    out.theorem2.bound = 2 * nd - gl.beta();
    out.theorem2.holds = out.theorem2.max_out_degree <= out.theorem2.bound;
  }
  return out;
}

}  // namespace hypart::oracle
