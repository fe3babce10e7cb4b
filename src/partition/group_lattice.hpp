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
// Δb, κ) read from one cosets × deps table.  On a plane the walker reads
// targets from a sliding window of per-run range tables (RangeWindow); on
// a chain from a ring of the run's recent ranges.  Group populations, block
// statistics, TIG arc-class weights and the theorem/lemma checks (one
// Sweep) and the simulator feed read the walk — on a lattice plan the same
// single walk; Algorithm 2 bisects per-run a-intervals
// (mapping/hypercube_map.hpp).
//
// When the closed forms do not apply, build() returns nullopt with a stable
// fallback reason slug (surfaced as the pipeline.lattice_fallback.<reason>
// metric) and the pipeline falls back to the line-based symbolic path
// (partition/grouping.hpp), which materializes groups but is still
// point-free.  docs/iterspace.md § "The group lattice" derives each closed
// form.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
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
  /// The canonical position of every group, in run-table order: element
  /// R.first + (a - R.a_lo) is the sorted index of group a of run R.  With
  /// population_prefix(), the node-fault remap's block index.
  /// O(groups + (a_max - a_min)·runs) time, O(groups) memory.
  [[nodiscard]] std::vector<std::uint64_t> sorted_order() const;

  // ---- dependences --------------------------------------------------------
  [[nodiscard]] const std::vector<IntVec>& original_deps() const { return space_->dependences(); }
  /// Scaled projected dependence s·d - (Π·d)·Π (dense pdep coordinates).
  [[nodiscard]] const IntVec& projected_dep_scaled(std::size_t k) const {
    return frame_.projected_deps_scaled()[k];
  }

  class Sweep;

  /// The full O(lines·deps) pass: block stats, partition stats, per-offset
  /// TIG weights, and (when `validate`) exact-cover/Theorem 1/Theorem 2/
  /// lemma verdicts — a Sweep fed by one walk with no feed.  O(lines·rows)
  /// range evaluations plus O(lines·(deps + r)) bookkeeping; memory
  /// O(deps + r) plus the walk's (see for_each_line_and_bundle).
  [[nodiscard]] LatticeSweepResult sweep(bool validate = true) const;

  /// Visit every populated line in walk order (runs in table order, slots
  /// ascending; group-contiguous) as on_line(group, population,
  /// first_step), first_step being the absolute step of its first point
  /// (Π·entry), then each of its (line, dependence) arc bundles as
  /// on_bundle(src, dst, dep, count, first_step): `count` arcs from the
  /// line of group `src` to the shifted line of group `dst`, the first one
  /// leaving at absolute step `first_step`.  Bundle values match
  /// partition/symbolic.hpp's for_each_line_dep.  A non-null `sweep` reads
  /// the same walk, so the simulator's feed fills it on the way.  One walk,
  /// every range evaluated once: O(lines·(rows + deps)).  Extra memory: on
  /// a plane the range window, O((2·max|Δb| + 1) · cosets · longest run);
  /// on a chain a ring of O(max|Δt|) ranges.
  template <class OnLine, class OnBundle>
  void for_each_line_and_bundle(OnLine&& on_line, OnBundle&& on_bundle,
                                Sweep* sweep = nullptr) const;

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
  /// Index into runs_ of the run of coset comp at aux coordinate b;
  /// runs_.size() if none.
  [[nodiscard]] std::size_t find_run(std::int64_t b, std::int64_t comp) const;
  /// A line's k-interval [k_lo, k_hi] along u from its anchor; k_lo > k_hi
  /// when the line is unpopulated.
  struct KRange {
    std::int64_t k_lo = 0, k_hi = -1;
  };
  /// The line loop both walkers share: visit(line, arc) for every populated
  /// line of `run` with slot t in [t_lo, t_hi], ascending; arc(k) yields a
  /// WalkArc on demand, so a visitor that never asks pays for no target
  /// range.  own(t) is slot t's range and target(k, s, tt, bt) the range of
  /// dependence k's target line (tt, bt) of coset s.comp.
  template <class Own, class Target, class F>
  void visit_run(const Run& run, std::int64_t t_lo, std::int64_t t_hi, const Own& own,
                 const Target& target, F&& visit) const;
  /// The ring walker over one run: it keeps the run's last 2·max|Δt| + 1
  /// line ranges in a ring, so a line's range is evaluated once even when it
  /// is also its neighbours' target; targets on other runs are evaluated
  /// directly.  O(max|Δt|) extra memory, so chains (a 2-D run can hold 10⁵
  /// lines and more) and the per-group queries walk with it.
  template <class F>
  void walk_run(const Run& run, std::int64_t t_lo, std::int64_t t_hi, F&& visit) const;
  class RangeWindow;
  /// Every populated line of the lattice, group-contiguous.  On a plane
  /// (β = 2) a RangeWindow evaluates each line's range once, when its run
  /// enters the window, and every dependence target is a table read; on a
  /// chain each run is walked by walk_run.
  template <class F>
  void walk(F&& visit) const;

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
  /// Plane window (β = 2 only): reach_ = max |Δb| over the shifts; at most
  /// window_runs_ runs lie within reach_ of one run's b, and the longest
  /// run holds window_stride_ lines.
  std::int64_t reach_ = 0;
  std::size_t window_runs_ = 0, window_stride_ = 0;
  std::uint64_t line_count_ = 0;
  std::uint64_t group_count_ = 0;
  std::int64_t a_min_ = 0, a_max_ = 0;
};

/// The sweep's per-line bookkeeping as an accumulator over the walk
/// (GroupLattice::for_each_line_and_bundle hands it every line and every
/// dependence out of it): group populations and block statistics, arc
/// counts, per-(dependence, group-offset) arc weights and, when `validate`,
/// the Theorem 1 window and the Lemma 2/3 and Theorem 2 fan-outs of each
/// group.  State is O(r + deps), reset at each group boundary.
class GroupLattice::Sweep {
 public:
  Sweep(const GroupLattice& lattice, bool validate);

  /// One populated line of group g, in walk order (group-contiguous).
  void line(const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
    if (!group_open_ || !(g == cur_)) {
      close_group();
      group_open_ = true;
      cur_ = g;
    }
    covered_ += static_cast<std::uint64_t>(pop);
    acc_ = detail::checked_add(acc_, pop);
    if (!validate_) return;
    // Theorem 1 within the group: lines collide iff their step APs
    // (first + k·σ, k in [0, pop)) intersect — same test as the dense
    // checker, against every earlier line of this group.
    const std::int64_t sigma = lattice_->step_stride();
    for (const LineRec& o : window_) {
      const std::int64_t diff = first_step - o.first_step;
      if (diff % sigma != 0) continue;
      const std::int64_t msh = diff / sigma;
      if (msh >= -(pop - 1) && msh <= o.pop - 1) out_.theorem1 = false;
    }
    window_.push_back(LineRec{first_step, pop});
  }

  /// Dependence k out of the current line: the group `dst` of its target
  /// line when that line is `populated`, and the `count` arcs (0 when the
  /// shifted line misses the current one).
  void arc(std::size_t k, bool populated, const GroupKey& dst, std::int64_t count) {
    // Group-digraph edges use projected-point existence (the dense
    // checker's find_point semantics), not arc counts: an edge exists
    // whenever the shifted line is populated.
    const bool has_dst = moving_[k] && populated;
    GroupOffset off{};
    if (has_dst) off = GroupOffset{dst.a - cur_.a, dst.b - cur_.b, dst.comp - cur_.comp};
    const bool inter = !(off == GroupOffset{});
    if (count > 0) {
      arc_total_ += static_cast<std::size_t>(count);
      if (inter) arc_inter_ += static_cast<std::size_t>(count);
      auto& table = weights_[k];
      auto it = std::find_if(table.begin(), table.end(),
                             [&](const auto& entry) { return entry.first == off; });
      if (it == table.end()) table.emplace_back(off, count);
      else it->second = detail::checked_add(it->second, count);
    }
    if (validate_ && inter) dep_offs_[k].insert(off);
  }

  /// Close the last group and assemble the result.
  [[nodiscard]] LatticeSweepResult finish();

 private:
  using GroupOffset = LatticeSweepResult::GroupOffset;
  struct LineRec {
    std::int64_t first_step;
    std::int64_t pop;
  };
  /// Tiny set of group offsets: per group and dependence at most a handful
  /// of distinct offsets occur (a slot window of width < r lands in at most
  /// two groups per lattice direction), so a linear-scan vector beats a
  /// node-based std::set.
  struct OffsetSet {
    std::vector<GroupOffset> v;
    void insert(const GroupOffset& x) {
      if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
    }
  };

  void close_group();

  const GroupLattice* lattice_;
  bool validate_;
  /// Per dependence: moves between lines (nonzero projection), and
  /// "special" (Lemma 2: its projection equals the grouping or an
  /// auxiliary vector — the dense checker's is_special_direction).
  std::vector<char> moving_, special_;
  std::vector<LineRec> window_;        ///< the current group's lines (Theorem 1)
  std::vector<OffsetSet> dep_offs_;    ///< per dep, the current group's distinct offsets
  OffsetSet succ_;                     ///< their union (out-degree)
  std::int64_t acc_ = 0;               ///< the current group's iteration count
  bool group_open_ = false;
  GroupKey cur_{};
  /// Arc weight per (dep, offset): a handful of offsets per dependence, so
  /// a flat table per dependence, folded into the result's map by finish().
  std::vector<std::vector<std::pair<GroupOffset, std::int64_t>>> weights_;
  std::uint64_t covered_ = 0;
  std::size_t arc_total_ = 0, arc_inter_ = 0;
  LatticeSweepResult out_;
};

/// The plane walk's sliding window of per-run range tables.  Runs ascend
/// in (b, comp), so the runs that the walk at run i can reach (b within
/// reach_ of its own) form an index interval that only moves forward.  Each
/// run's table, one KRange per slot t_lo..t_hi, is filled once, when the
/// interval first covers it, into table slot (run index mod window_runs_)
/// of one flat buffer, over the table of a run that has left.  Memory:
/// window_runs_ · window_stride_ ranges, at most (2·max|Δb| + 1) · cosets ·
/// longest run.
class GroupLattice::RangeWindow {
 public:
  /// One run's table: slot t reads ranges[t - t_lo]; a slot outside
  /// [t_lo, t_lo + len) is unpopulated (len 0: no such run).
  struct Table {
    const KRange* ranges = nullptr;
    std::int64_t t_lo = 0;
    std::uint64_t len = 0;
    [[nodiscard]] KRange at(std::int64_t t) const {
      const std::uint64_t off = static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(t_lo);
      return off < len ? ranges[off] : KRange{};
    }
  };

  explicit RangeWindow(const GroupLattice& lattice);
  /// Slide the window to run i: fill every run that has come within reach
  /// and point target(k) at dependence k's target run.  Returns run i's
  /// table.
  const Table& enter(std::size_t i);
  [[nodiscard]] const Table& target(std::size_t k) const { return targets_[k]; }

 private:
  [[nodiscard]] Table table_of(std::size_t j) const;

  const GroupLattice* lattice_;
  std::vector<KRange> buf_;     ///< window_runs_ tables of window_stride_ ranges
  std::size_t filled_ = 0;      ///< runs [0, filled_) have been filled
  Table own_;                   ///< the current run's table
  std::vector<Table> targets_;  ///< per dependence, the current run's target table
};

// ---- walker -----------------------------------------------------------------

template <class Own, class Target, class F>
void GroupLattice::visit_run(const Run& run, std::int64_t t_lo, std::int64_t t_hi, const Own& own,
                             const Target& target, F&& visit) const {
  const std::size_t nd = original_deps().size();
  const Shift* shift = shifts_.data() + static_cast<std::size_t>(run.comp) * nd;
  std::int64_t step_anchor = detail::checked_add(
      detail::checked_add(cosets_[static_cast<std::size_t>(run.comp)].step_base,
                          detail::checked_mul(t_lo, step_t_)),
      detail::checked_mul(run.b, step_b_));
  std::int64_t a = floor_div(t_lo, choice_.r);
  std::int64_t pos = t_lo - a * choice_.r;  // slot within group a
  for (std::int64_t t = t_lo;; ++t) {
    const KRange src = own(t);
    if (src.k_lo <= src.k_hi) {
      const WalkLine line{degenerate() ? GroupKey{t, 0, t} : GroupKey{a, run.b, run.comp},
                          src.k_lo, src.k_hi, step_anchor};
      visit(line, [&](std::size_t k) {
        const Shift& s = shift[k];
        WalkArc arc;
        if (s.comp < 0) return arc;
        const std::int64_t tt = detail::checked_add(t, s.dt);
        const std::int64_t bt = detail::checked_add(run.b, s.db);
        const KRange tgt = target(k, s, tt, bt);
        if (tgt.k_lo <= tgt.k_hi) {
          arc.k_lo = detail::checked_sub(tgt.k_lo, s.kappa);
          arc.k_hi = detail::checked_sub(tgt.k_hi, s.kappa);
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

template <class F>
void GroupLattice::walk_run(const Run& run, std::int64_t t_lo, std::int64_t t_hi,
                            F&& visit) const {
  if (t_lo > t_hi) return;
  // Ring of the run's most recent line ranges, slot t mod ring_size_.  One
  // line's same-run queries span [t - max|Δt|, t + max|Δt|], fewer lines
  // than slots, so they never evict each other.
  struct Slot {
    std::int64_t t;
    KRange r;
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
  const LineForm& home = cosets_[static_cast<std::size_t>(run.comp)].form;
  auto range_of = [&](std::int64_t t) {
    Slot& s = ring[static_cast<std::uint64_t>(t) & mask];
    if (!s.filled || s.t != t) {
      const auto r = home.range(t, run.b);
      s = Slot{t, r ? KRange{r->first, r->second} : KRange{}, true};
    }
    return s.r;
  };
  visit_run(
      run, t_lo, t_hi, range_of,
      [&](std::size_t, const Shift& s, std::int64_t tt, std::int64_t bt) {
        if (s.comp == run.comp && s.db == 0) return range_of(tt);
        const auto r = cosets_[static_cast<std::size_t>(s.comp)].form.range(tt, bt);
        return r ? KRange{r->first, r->second} : KRange{};
      },
      visit);
}

template <class F>
void GroupLattice::walk(F&& visit) const {
  if (gens_.size() != 2) {
    for (const Run& run : runs_) walk_run(run, run.t_lo, run.t_hi, visit);
    return;
  }
  RangeWindow window(*this);
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Run& run = runs_[i];
    const RangeWindow::Table& own = window.enter(i);
    visit_run(
        run, run.t_lo, run.t_hi, [&](std::int64_t t) { return own.ranges[t - run.t_lo]; },
        [&](std::size_t k, const Shift&, std::int64_t tt, std::int64_t) {
          return window.target(k).at(tt);
        },
        visit);
  }
}

template <class OnLine, class OnBundle>
void GroupLattice::for_each_line_and_bundle(OnLine&& on_line, OnBundle&& on_bundle,
                                            Sweep* sweep) const {
  walk([&](const WalkLine& line, const auto& arc_of) {
    const std::int64_t pop = line.k_hi - line.k_lo + 1;
    const std::int64_t first_step =
        detail::checked_add(line.step_anchor, detail::checked_mul(line.k_lo, step_stride()));
    on_line(line.g, pop, first_step);
    if (sweep) sweep->line(line.g, pop, first_step);
    for (std::size_t k = 0; k < original_deps().size(); ++k) {
      const WalkArc arc = arc_of(k);
      const std::int64_t lo = std::max(line.k_lo, arc.k_lo);
      const std::int64_t hi = std::min(line.k_hi, arc.k_hi);
      if (sweep) sweep->arc(k, arc.populated(), arc.dst, lo <= hi ? hi - lo + 1 : 0);
      if (lo > hi) continue;
      on_bundle(line.g, arc.dst, k, hi - lo + 1,
                detail::checked_add(line.step_anchor, detail::checked_mul(lo, step_stride())));
    }
  });
}

}  // namespace hypart
