// Per-line reference walk of a GroupLattice: every line's k-range and every
// dependence-shifted range come from one IterSpace::line_range query each,
// at the line's anchor and at the anchor moved by the dependence — the
// direct definition the compiled walkers (LineForm rows plus the κ_k shift
// identity) must reproduce value for value and in the same order.  The
// lattice frame (components, aux chains, group keys) is read back through
// GroupLattice's public queries only.
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

/// One run of lattice lines in walk order: chain component m (lines
/// c = cs + t·γ_l) or aux chain b (lines (t, b)), slots [t_lo, t_hi].
struct LineRun {
  std::int64_t m_or_b = 0;
  std::int64_t cs = 0;
  std::int64_t t_lo = 0, t_hi = 0;
};

inline std::vector<LineRun> line_runs(const GroupLattice& gl) {
  std::vector<LineRun> runs;
  if (gl.layout() == LatticeLayout::Plane) {
    for (const GroupLattice::GroupBox& box : gl.enumerate_boxes()) {
      const std::int64_t b = box.c_lo;
      runs.push_back({b, 0, gl.group_line_range({box.a_lo, b, 0}).first,
                      gl.group_line_range({box.a_hi, b, 0}).second});
    }
    return runs;
  }
  const std::int64_t gamma = gl.slot_stride();
  for (std::int64_t m = 0; m < gl.component_count(); ++m) {
    const std::int64_t cs = gl.seed_line() + (gl.degenerate() ? 0 : m) * gl.lex_direction();
    const std::int64_t lo = gamma > 0 ? gl.c_min() : gl.c_max();
    const std::int64_t hi = gamma > 0 ? gl.c_max() : gl.c_min();
    runs.push_back({m, cs, ceil_div(lo - cs, gamma), floor_div(hi - cs, gamma)});
  }
  return runs;
}

/// visit(src, src_range, step_anchor, dep_range(k), dep_target(k)) for every
/// populated line, in walk order.  dep_target is nullopt when d_k ∥ Π or
/// the target line lies outside the lattice; dep_group(k) is the target
/// line's group regardless.
template <class Visit>
void walk_lines(const GroupLattice& gl, Visit&& visit) {
  const IterSpace& space = gl.space();
  const IntVec& u = gl.line_direction();
  const IntVec& pi = gl.time_function().pi;
  const std::vector<IntVec>& deps = gl.original_deps();
  const std::int64_t r = gl.group_size_r();
  const bool plane = gl.layout() == LatticeLayout::Plane;
  const std::vector<LineRun> runs = line_runs(gl);
  auto run_of_b = [&](std::int64_t b) -> const LineRun* {
    for (const LineRun& run : runs)
      if (run.m_or_b == b) return &run;
    return nullptr;
  };
  for (const LineRun& run : runs) {
    for (std::int64_t t = run.t_lo; t <= run.t_hi; ++t) {
      const std::int64_t c = run.cs + t * gl.slot_stride();
      const IntVec p = plane ? gl.line_anchor(t, run.m_or_b) : gl.line_anchor(c);
      const KRange range = space.line_range(p, u);
      if (!range) continue;
      GroupKey g{floor_div(t, r), plane ? run.m_or_b : 0, plane ? 0 : run.m_or_b};
      if (!plane && gl.degenerate()) g = GroupKey{t, 0, t};
      auto dep_range = [&](std::size_t k) { return space.line_range(add(p, deps[k]), u); };
      auto dep_group = [&](std::size_t k) -> GroupKey {
        if (!plane) return gl.group_of_line(c + gl.line_shift(k));
        const auto [dt, db] = gl.plane_shift(k);
        return GroupKey{floor_div(t + dt, r), run.m_or_b + db, 0};
      };
      auto dep_target = [&](std::size_t k) -> std::optional<GroupKey> {
        if (is_zero(gl.projected_dep_scaled(k))) return std::nullopt;
        if (!plane) {
          const std::int64_t ct = c + gl.line_shift(k);
          if (ct < gl.c_min() || ct > gl.c_max()) return std::nullopt;
          return gl.group_of_line(ct);
        }
        const auto [dt, db] = gl.plane_shift(k);
        const LineRun* target = run_of_b(run.m_or_b + db);
        if (target == nullptr || t + dt < target->t_lo || t + dt > target->t_hi)
          return std::nullopt;
        return dep_group(k);
      };
      visit(g, *range, dot(pi, p), dep_range, dep_group, dep_target);
    }
  }
}

/// Reference for GroupLattice::for_each_line: visit(group, pop, first_step).
template <class Visit>
void for_each_line(const GroupLattice& gl, Visit&& visit) {
  walk_lines(gl, [&](const GroupKey& g, std::pair<std::int64_t, std::int64_t> range,
                     std::int64_t step_anchor, const auto&, const auto&, const auto&) {
    visit(g, range.second - range.first + 1, step_anchor + range.first * gl.step_stride());
  });
}

/// Reference for GroupLattice::for_each_arc_bundle.
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
      visit(g, dep_group(k), k, hi - lo + 1, step_anchor + lo * gl.step_stride());
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
