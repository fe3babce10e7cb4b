// hypart — closed-form group lattice (symbolic backend for Algorithm 1's
// grouping phase and Algorithm 2's bisection).
//
// On the admitted class the groups form a regular lattice and every
// grouping/mapping quantity has a closed form; no Group object is built.
// Algorithm 1 grows groups on the lattice spanned by d_l^p (and, for β = 2,
// the auxiliary d_a^p).  The projection lines split into the *cosets* of
// that lattice, and the dense region growing covers each coset from its
// lexicographically smallest projected point, so coset m is the m-th in
// ascending order of its seed.  Within coset m a line has a slot t along
// d_l and an aux coordinate b along d_a (0 when β ≤ 1), both counted from
// the seed, and its anchor point is
//     p_m(t, b) = origin_m + t·g_0 + b·g_1.
// The line's group is (a, b, m) with a = floor(t/r): the dense
// Group::lattice coordinates and region-growing component.
//
//  * n = 2.  Lines are indexed by c = w·j with w ⊥ u (u = Π/content(Π))
//    primitive, and a convex domain meets an interval [c_lo, c_hi] of them.
//    One slot moves c by γ_l = w·d_l, so the lines split into
//    min(|γ_l|, c_hi - c_lo + 1) residue cosets, c ≡ c_seed + m·lexdir
//    (mod |γ_l|); g_0 = γ_l·δ with w·δ = 1.  Filled in O(slabs) from the
//    slab boxes' line intervals.
//  * n = 3, β = 2.  With the dual functionals QA = project(d_a^p × Π) and
//    QB = project(Π × d_l^p) and D = det(d_l^p, d_a^p, Π) > 0, QA(d_l) =
//    QB(d_a) = D and QA(d_a) = QB(d_l) = 0, so two lines share a coset iff
//    their QA and QB agree mod D, and t, b are the QA, QB differences from
//    the seed over D; g_0 = d_l, g_1 = d_a.  Filled by one O(lines) line
//    enumeration.
//
// The lattice is one table of *runs*: the slots [t_lo, t_hi] of coset comp
// at aux coordinate b, ascending (b, comp).  A group never straddles runs,
// and each run must be contiguous (a gap would split a dense group chain;
// build() refuses it as chain-noncontiguous).  The canonical group order is
// ascending (a, b, comp): the dense mapper's key (coordinate, then the
// full coordinate vector, then creation order, which is coset-major).
//
// build() compiles the nest's bounds once per coset into a LineForm
// (loop/iter_space.hpp), one row (α·x + β) + k·m ≥ 0 per bound term over
// x = (t, b).  One walker visits the runs in table order, slots ascending,
// and evaluates each line's k-range once from the rows.  Every
// dependence-shifted range is the target line's own range moved by a
// constant: p_m(t, b) + d_k = p_m'(t + Δt, b + Δb) + κ·u, with (m', Δt,
// Δb, κ) read from one cosets × deps table.  Group populations, block
// statistics, TIG arc-class weights, the theorem/lemma checks and the
// simulator feed all read the walk; Algorithm 2 bisects per-run a-intervals
// (mapping/hypercube_map.hpp).
//
// When the closed forms do not apply, build() returns nullopt with a stable
// fallback reason slug (surfaced as the pipeline.lattice_fallback.<reason>
// metric) and the pipeline falls back to the line-based symbolic path
// (partition/grouping.hpp), which materializes groups but is still
// point-free.  docs/iterspace.md § "The group lattice" derives each closed
// form.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "loop/iter_space.hpp"
#include "partition/blocks.hpp"
#include "partition/checkers.hpp"
#include "partition/grouping.hpp"
#include "schedule/hyperplane.hpp"

namespace hypart {

/// Aggregate block-size statistics of the symbolic grouping (the lattice
/// path's stand-in for the per-block size vector, which is never built).
struct LatticeBlockStats {
  std::uint64_t group_count = 0;     ///< number of groups (== blocks)
  std::uint64_t total_iterations = 0;///< sum of block sizes == |J^n|
  std::int64_t min_block = 0;        ///< smallest block (iteration count)
  std::int64_t max_block = 0;        ///< largest block
};

/// Everything the O(lines·deps) line sweep derives in one pass: block
/// statistics, partition stats (block_comm left empty — the per-pair graph
/// is inherently O(groups); the per-offset aggregation below replaces it),
/// per-(dependence, group-offset) arc weights, and the theorem/lemma
/// verdicts.  Memory is O(deps + r), independent of N.
struct LatticeSweepResult {
  LatticeBlockStats stats;
  PartitionStats partition;
  /// Group-lattice offset between an arc's source and target groups:
  /// Δa along the grouping chain, Δb along the auxiliary direction, Δcomp
  /// across cosets.
  struct GroupOffset {
    std::int64_t da = 0;
    std::int64_t db = 0;
    std::int64_t dcomp = 0;
    friend bool operator==(const GroupOffset&, const GroupOffset&) = default;
    friend auto operator<=>(const GroupOffset&, const GroupOffset&) = default;
  };
  /// (dep index, group offset) -> number of dependence arcs whose source
  /// and target groups differ by that offset.  The closed-form counterpart
  /// of the TIG edge weights: by Lemmas 2/3 each dependence contributes a
  /// bounded number of offsets.
  std::map<std::pair<std::size_t, GroupOffset>, std::int64_t> offset_weights;
  bool exact_cover = false;
  bool theorem1 = false;
  Theorem2Report theorem2;
  LemmaReport lemmas;
};

/// Symbolic grouping of an affine iteration space as a regular group
/// lattice.  Reproduces the dense Grouping (populations, lattice
/// coordinates, component ids, mapping order) exactly on the gated class.
class GroupLattice {
 public:
  /// Identity of one group without materializing it: the dense
  /// Group::lattice coordinates (a, b) plus the region-growing component
  /// (its coset).  Degenerate lattices (every dependence parallel to Π)
  /// make each line its own group and component: (t, 0, t).
  struct GroupKey {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t comp = 0;
    friend bool operator==(const GroupKey&, const GroupKey&) = default;
    friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
  };

  /// One run: the populated slots [t_lo, t_hi] of coset `comp` at aux
  /// coordinate b, holding the groups a in [a_lo, a_hi] = floor(t/r).
  /// Counting groups run by run in table order, a ascending, its first
  /// group is number `first`.
  struct Run {
    std::int64_t comp = 0;
    std::int64_t b = 0;
    std::int64_t t_lo = 0, t_hi = 0;
    std::int64_t a_lo = 0, a_hi = 0;
    std::uint64_t first = 0;
  };

  /// Gate + construction; nullopt when the closed forms do not apply (the
  /// caller falls back to the line-based symbolic path).  When refused and
  /// `fallback_reason` is non-null it receives a stable slug naming the
  /// first failed gate (e.g. "line-interval-hole", "chain-noncontiguous").
  /// O(slabs log slabs) for n = 2, O(lines · cosets) for n = 3.
  static std::optional<GroupLattice> build(const IterSpace& space, const TimeFunction& tf,
                                           const GroupingOptions& opts = {},
                                           std::string* fallback_reason = nullptr);

  // ---- frame --------------------------------------------------------------
  [[nodiscard]] const IterSpace& space() const { return *space_; }
  [[nodiscard]] const TimeFunction& time_function() const { return frame_.time_function(); }
  [[nodiscard]] const IntVec& line_direction() const { return frame_.line_direction(); }
  [[nodiscard]] std::int64_t step_stride() const { return frame_.step_stride(); }
  /// Group size r of Algorithm 1 Step 1 (1 in the degenerate case).
  [[nodiscard]] std::int64_t group_size_r() const { return choice_.r; }
  /// β = rank(mat(D^p)): 2 with an aux coordinate, 1 for a grouped chain,
  /// 0 when every dependence is parallel to Π (degenerate: every line is
  /// its own group).
  [[nodiscard]] std::size_t beta() const { return choice_.beta; }
  [[nodiscard]] bool degenerate() const { return !choice_.grouping; }
  [[nodiscard]] std::optional<std::size_t> grouping_vector_index() const {
    return choice_.grouping;
  }
  /// Auxiliary dependence index (n = 3 only).
  [[nodiscard]] std::optional<std::size_t> auxiliary_vector_index() const {
    if (choice_.aux.empty()) return std::nullopt;
    return choice_.aux.front();
  }
  /// Anchor p_comp(t, b) of a line, the point its k-coordinates count from
  /// (not necessarily inside J).
  [[nodiscard]] IntVec line_anchor(std::int64_t comp, std::int64_t t, std::int64_t b = 0) const;
  /// Number of cosets (dense region-growing components; 1 when degenerate).
  [[nodiscard]] std::int64_t component_count() const {
    return static_cast<std::int64_t>(cosets_.size());
  }
  /// Total populated lines (== projected point count).
  [[nodiscard]] std::uint64_t line_count() const { return line_count_; }

  // ---- runs and groups ----------------------------------------------------
  /// The run table, ascending (b, comp).
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }
  /// Index into runs() of the run holding group g; runs().size() if none.
  [[nodiscard]] std::size_t run_of(const GroupKey& g) const;
  /// Extreme grouping-chain coordinates over all runs.
  [[nodiscard]] std::int64_t a_min() const { return a_min_; }
  [[nodiscard]] std::int64_t a_max() const { return a_max_; }
  [[nodiscard]] std::uint64_t group_count() const { return group_count_; }
  /// Dense Group::lattice coords: {} degenerate, {a} n = 2, {a, b} n = 3.
  [[nodiscard]] IntVec group_lattice_coord(const GroupKey& g) const;
  /// Slot interval [t_lo, t_hi] of group g on its run, clipped to the run
  /// (boundary groups are partial); empty when no run holds g.
  [[nodiscard]] DimBounds group_line_range(const GroupKey& g) const;
  /// Block size of the group: Σ of its lines' populations; O(r·rows).
  [[nodiscard]] std::int64_t group_population(const GroupKey& g) const;
  /// Position in the canonical order, ascending (a, b, comp).  O(runs).
  [[nodiscard]] std::uint64_t sorted_index_of_group(const GroupKey& g) const;
  [[nodiscard]] GroupKey group_at_sorted_index(std::uint64_t k) const;
  /// Prefix sums of the group populations in run-table order, a ascending
  /// within a run: element i is the population of the first i groups, so
  /// group a of run R is element R.first + (a - R.a_lo) + 1.
  /// O(lines·rows) time, O(groups) memory; throws ArithmeticError past
  /// int64.
  [[nodiscard]] std::vector<std::int64_t> population_prefix() const;
  /// Visit every group in canonical order with its population — the
  /// node-fault remap's block-size feed.  O(groups + (a_max - a_min)·runs).
  void for_each_group(const std::function<void(const GroupKey&, std::int64_t pop)>& visit) const;

  // ---- dependences --------------------------------------------------------
  [[nodiscard]] const std::vector<IntVec>& original_deps() const { return space_->dependences(); }
  /// Scaled projected dependence s·d - (Π·d)·Π (dense pdep coordinates).
  [[nodiscard]] const IntVec& projected_dep_scaled(std::size_t k) const {
    return frame_.projected_deps_scaled()[k];
  }

  /// The full O(lines·deps) pass: block stats, partition stats, per-offset
  /// TIG weights, and (when `validate`) exact-cover/Theorem 1/Theorem 2/
  /// lemma verdicts.  One walk: O(lines·rows) range evaluations plus
  /// O(lines·(deps + r)) bookkeeping; memory O(deps + r).
  [[nodiscard]] LatticeSweepResult sweep(bool validate = true) const;

  /// Visit every populated line in walk order (runs in table order, slots
  /// ascending; group-contiguous) as visit(group, population, first_step),
  /// first_step being the absolute step of its first point (Π·entry).
  /// O(lines·rows), O(1) extra memory — the simulator's line feed.
  template <class Visit>
  void for_each_line(Visit&& visit) const;
  /// Visit every (line, dependence) arc bundle as
  /// visit(src, dst, dep, count, first_step): `count` arcs from a line of
  /// group `src` to the shifted line of group `dst`, the first one leaving
  /// at absolute step `first_step`.  Values match partition/symbolic.hpp's
  /// for_each_line_dep.  O(lines·(rows + deps)).
  template <class Visit>
  void for_each_arc_bundle(Visit&& visit) const;

 private:
  explicit GroupLattice(ProjectionFrame frame) : frame_(std::move(frame)) {}

  /// One coset: its seed line's entry point (the anchor origin), the
  /// bounds compiled along its anchors, and Π·origin.
  struct Coset {
    IntVec origin;
    LineForm form;
    std::int64_t step_base = 0;
  };
  /// Dependence k from coset m: line (t, b) moved by d_k lies on line
  /// (t + dt, b + db) of coset `comp` (-1: a coset without lines, so the
  /// target is unpopulated), and p_m(t, b) + d_k = p_comp(t + dt, b + db) +
  /// κ·u.
  struct Shift {
    std::int64_t comp = -1;
    std::int64_t dt = 0, db = 0;
    std::int64_t kappa = 0;
  };
  /// One populated line as the walker hands it out: its group, its
  /// k-interval [k_lo, k_hi] along u from the line's anchor, and Π·anchor.
  struct WalkLine {
    GroupKey g;
    std::int64_t k_lo = 0, k_hi = 0;
    std::int64_t step_anchor = 0;
  };
  /// Dependence k's arcs out of the current line: the target line's range
  /// moved into the source line's k-coordinates (k_lo > k_hi when the
  /// target line is unpopulated) and the target line's group.
  struct WalkArc {
    std::int64_t k_lo = 0, k_hi = -1;
    GroupKey dst;
    [[nodiscard]] bool populated() const { return k_lo <= k_hi; }
  };

  [[nodiscard]] GroupKey key_at(std::int64_t comp, std::int64_t b, std::int64_t t) const {
    if (degenerate()) return GroupKey{t, 0, t};
    return GroupKey{floor_div(t, choice_.r), b, comp};
  }
  /// The walker: visit(line, arc) for every populated line of `run` with
  /// slot t in [t_lo, t_hi], ascending; arc(k) yields a WalkArc on demand,
  /// so a visitor that never asks pays for no target range.  It keeps the
  /// run's last 2·max|Δt| + 1 line ranges in a ring, so a line's range is
  /// evaluated once even when it is also its neighbours' target; targets
  /// on other runs are evaluated directly.
  template <class F>
  void walk_run(const Run& run, std::int64_t t_lo, std::int64_t t_hi, F&& visit) const;
  /// Every populated line of the lattice, group-contiguous.
  template <class F>
  void walk(F&& visit) const {
    for (const Run& run : runs_) walk_run(run, run.t_lo, run.t_hi, visit);
  }

  const IterSpace* space_ = nullptr;
  ProjectionFrame frame_;  ///< s, u, σ and the scaled projected dependences
  GroupingChoice choice_;  ///< r, d_l^p and Ψ (Steps 1-2)
  std::vector<Coset> cosets_;   ///< by component id
  std::vector<IntVec> gens_;    ///< g_0 (one slot) [, g_1 (one aux step)]
  std::int64_t step_t_ = 0;     ///< Π·g_0
  std::int64_t step_b_ = 0;     ///< Π·g_1
  std::vector<Shift> shifts_;   ///< cosets × deps, coset-major
  std::vector<Run> runs_;       ///< ascending (b, comp)
  std::size_t ring_size_ = 1;   ///< power of two >= 2·max same-run |Δt| + 1
  std::uint64_t line_count_ = 0;
  std::uint64_t group_count_ = 0;
  std::int64_t a_min_ = 0, a_max_ = 0;
};

// ---- walker -----------------------------------------------------------------

template <class F>
void GroupLattice::walk_run(const Run& run, std::int64_t t_lo, std::int64_t t_hi,
                            F&& visit) const {
  if (t_lo > t_hi) return;
  // Ring of the run's most recent line ranges, slot t mod ring_size_.  One
  // line's same-run queries span [t - max|Δt|, t + max|Δt|], fewer lines
  // than slots, so they never evict each other.
  struct Slot {
    std::int64_t t, k_lo, k_hi;
    bool filled;
  };
  std::array<Slot, 64> local;
  std::vector<Slot> spill;
  Slot* ring = local.data();
  if (ring_size_ > local.size()) {
    spill.resize(ring_size_);
    ring = spill.data();
  }
  for (std::size_t i = 0; i < ring_size_; ++i) ring[i].filled = false;
  const std::uint64_t mask = ring_size_ - 1;
  const Coset& home = cosets_[static_cast<std::size_t>(run.comp)];
  auto range_of = [&](std::int64_t t) -> const Slot& {
    Slot& s = ring[static_cast<std::uint64_t>(t) & mask];
    if (!s.filled || s.t != t) {
      const auto r = home.form.range(t, run.b);
      s = r ? Slot{t, r->first, r->second, true} : Slot{t, 0, -1, true};
    }
    return s;
  };
  const std::size_t nd = original_deps().size();
  const Shift* shift = shifts_.data() + static_cast<std::size_t>(run.comp) * nd;

  std::int64_t step_anchor =
      detail::checked_add(detail::checked_add(home.step_base, detail::checked_mul(t_lo, step_t_)),
                          detail::checked_mul(run.b, step_b_));
  std::int64_t a = floor_div(t_lo, choice_.r);
  std::int64_t pos = t_lo - a * choice_.r;  // slot within group a
  for (std::int64_t t = t_lo;; ++t) {
    const Slot& src = range_of(t);
    if (src.k_lo <= src.k_hi) {
      const WalkLine line{degenerate() ? GroupKey{t, 0, t} : GroupKey{a, run.b, run.comp},
                          src.k_lo, src.k_hi, step_anchor};
      visit(line, [&](std::size_t k) {
        const Shift& s = shift[k];
        WalkArc arc;
        if (s.comp < 0) return arc;
        const std::int64_t tt = detail::checked_add(t, s.dt);
        const std::int64_t bt = detail::checked_add(run.b, s.db);
        std::int64_t lo = 0, hi = -1;
        if (s.comp == run.comp && s.db == 0) {
          const Slot& tgt = range_of(tt);
          lo = tgt.k_lo;
          hi = tgt.k_hi;
        } else if (const auto r = cosets_[static_cast<std::size_t>(s.comp)].form.range(tt, bt)) {
          lo = r->first;
          hi = r->second;
        }
        if (lo <= hi) {
          arc.k_lo = detail::checked_sub(lo, s.kappa);
          arc.k_hi = detail::checked_sub(hi, s.kappa);
        }
        arc.dst = key_at(s.comp, bt, tt);
        return arc;
      });
    }
    if (t == t_hi) break;
    step_anchor = detail::checked_add(step_anchor, step_t_);
    if (++pos == choice_.r) {
      ++a;
      pos = 0;
    }
  }
}

template <class Visit>
void GroupLattice::for_each_line(Visit&& visit) const {
  walk([&](const WalkLine& line, const auto&) {
    visit(line.g, line.k_hi - line.k_lo + 1,
          detail::checked_add(line.step_anchor, detail::checked_mul(line.k_lo, step_stride())));
  });
}

template <class Visit>
void GroupLattice::for_each_arc_bundle(Visit&& visit) const {
  walk([&](const WalkLine& line, const auto& arc_of) {
    for (std::size_t k = 0; k < original_deps().size(); ++k) {
      const WalkArc arc = arc_of(k);
      const std::int64_t lo = std::max(line.k_lo, arc.k_lo);
      const std::int64_t hi = std::min(line.k_hi, arc.k_hi);
      if (lo > hi) continue;
      visit(line.g, arc.dst, k, hi - lo + 1,
            detail::checked_add(line.step_anchor, detail::checked_mul(lo, step_stride())));
    }
  });
}

}  // namespace hypart
