// hypart — closed-form group lattice (symbolic backend for Algorithm 1's
// grouping phase and Algorithm 2's bisection).
//
// PR 3/4 made the iteration space symbolic, but the grouping phase still
// materialized one Group per group, so end-to-end cost stayed O(groups).
// On the classes below the groups form a *regular lattice* and every
// grouping/mapping quantity has a closed form; no Group objects are ever
// materialized.  Two layouts cover the admitted nests:
//
//  * Chain (n = 2, β ≤ 1).  Lines are indexed by c = w·j, where w ⊥ u
//    (u = Π/content(Π)) is the primitive line-index vector; a convex 2-D
//    domain meets a contiguous interval [c_lo, c_hi] of lines.  One slot
//    step along the grouping vector d_l advances the line index by
//    γ_l = w·d_l.  With |γ_l| = g > 1 the dense BFS no longer reaches every
//    line from one seed: the lines split into g *residue components*
//    (c ≡ c_seed + m·lexdir mod g), each an arithmetic sub-chain the dense
//    region growing covers from its own lexicographic seed, in seed order
//    m = 0, 1, ….  Slot index within component m is t = (c - c_seed_m)/γ_l
//    and the group is (a, m) with a = floor(t/r) — exactly the dense
//    Group::lattice coordinate and component id.
//  * Plane (n = 3, β = 2, single coset).  The scaled projected points live
//    in the 2-D lattice spanned by d_l^p (grouping) and d_a^p (auxiliary).
//    With the dual functionals A(x) = x·(d_a^p × Π), B(x) = x·(Π × d_l^p)
//    and shared divisor D = det(d_l^p, d_a^p, Π) > 0, the
//    lattice coordinates of a line are t = (A(ĵ)-A(ĵ*))/D along d_l^p and
//    b = (B(ĵ)-B(ĵ*))/D along d_a^p, anchored at the dense lexicographic
//    seed ĵ*.  Groups are (a, b) with a = floor(t/r); each aux chain (fixed
//    b) must meet the domain in one contiguous t-run (convexity gives this
//    for box-like nests; a gap falls back).  Admission requires every
//    projected unit vector to stay on the seed coset (D | A(proj e_i) and
//    D | B(proj e_i)); multi-coset 3-D nests take the line-based fallback.
//
// build() compiles the nest's bounds once into a LineForm
// (loop/iter_space.hpp): one row (α·x + β) + k·m ≥ 0 per bound term, where x
// is the lattice line coordinate — c for chains, (t, b) for planes.  One
// walker per layout (walk_chain / walk_plane below) then visits the lines
// in group-contiguous order and evaluates each line's k-range once from the
// rows.  Every dependence-shifted range is the target line's own range
// moved by a constant: p(x) + d_k = p(x + shift_k) + κ_k·u, because both
// sides lie on the same line.  Group populations, block statistics, TIG
// arc-class weights, the theorem/lemma checks and the simulator feed all
// read the walk, and Algorithm 2's bisection reduces to ceil-halving of the
// sorted group order (chain) or an alternating-direction fragment bisection
// (plane) — mapping/hypercube_map.hpp.
//
// When no layout applies, build() returns nullopt with a stable fallback
// reason slug (surfaced as the pipeline.lattice_fallback.<reason> metric)
// and the pipeline falls back to the line-based symbolic path
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

/// Which closed-form family the lattice instantiates.
enum class LatticeLayout {
  Chain,  ///< 2-D nest: 1-D group chain, possibly g residue components
  Plane,  ///< 3-D nest, β = 2: 2-D (a, b) group lattice, single component
};

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
/// verdicts.  Memory is O(deps + r + components), independent of N.
struct LatticeSweepResult {
  LatticeBlockStats stats;
  PartitionStats partition;
  /// Group-lattice offset between an arc's source and target groups:
  /// Δa along the grouping chain, Δb along the auxiliary direction (plane
  /// layout), Δcomp across residue components (strided chain layout).
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
  /// Group::lattice coordinates (a[, b]) plus the region-growing component.
  /// Chain groups use (a, comp); plane groups use (a, b) with comp == 0.
  struct GroupKey {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t comp = 0;
    friend bool operator==(const GroupKey&, const GroupKey&) = default;
    friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
  };

  /// Gate + construction; nullopt when the closed forms do not apply (the
  /// caller falls back to the line-based symbolic path).  When refused and
  /// `fallback_reason` is non-null it receives a stable slug naming the
  /// first failed gate (e.g. "line-interval-hole", "plane-multi-coset").
  /// O(slabs log slabs) for the chain layout, O(lines) for the plane.
  static std::optional<GroupLattice> build(const IterSpace& space, const TimeFunction& tf,
                                           const GroupingOptions& opts = {},
                                           std::string* fallback_reason = nullptr);

  // ---- frame --------------------------------------------------------------
  [[nodiscard]] const IterSpace& space() const { return *space_; }
  [[nodiscard]] const TimeFunction& time_function() const { return frame_.time_function(); }
  [[nodiscard]] LatticeLayout layout() const { return layout_; }
  /// Line-index vector w (primitive, w·u = 0): line of j is c = w·j.
  /// Chain layout only.
  [[nodiscard]] const IntVec& line_index_vector() const { return w_; }
  [[nodiscard]] const IntVec& line_direction() const { return frame_.line_direction(); }
  [[nodiscard]] std::int64_t step_stride() const { return frame_.step_stride(); }
  /// Group size r of Algorithm 1 Step 1 (1 in the degenerate case).
  [[nodiscard]] std::int64_t group_size_r() const { return choice_.r; }
  /// β = rank(mat(D^p)): 2 for the plane layout, 1 for a grouped chain, 0
  /// when every dependence is parallel to Π (degenerate: every line is its
  /// own group).
  [[nodiscard]] std::size_t beta() const { return choice_.beta; }
  [[nodiscard]] bool degenerate() const { return !choice_.grouping; }
  [[nodiscard]] std::optional<std::size_t> grouping_vector_index() const {
    return choice_.grouping;
  }
  /// Auxiliary dependence index (plane layout only).
  [[nodiscard]] std::optional<std::size_t> auxiliary_vector_index() const {
    if (choice_.aux.empty()) return std::nullopt;
    return choice_.aux.front();
  }
  /// Anchor of lattice line x, the point its k-coordinates count from:
  /// p(c) = c·δ for chains (w·δ = 1, δ a signed unit vector; not
  /// necessarily inside J) and p(t, b) = ĵ*-entry + t·d_l + b·d_a for planes
  /// (ĵ*-entry: the dense seed line's entry point; d_l, d_a the original
  /// grouping and auxiliary dependences).
  [[nodiscard]] IntVec line_anchor(std::int64_t x0, std::int64_t x1 = 0) const;
  /// Number of dense region-growing components: the residue count
  /// min(|γ_l|, line interval length) for a strided chain, else 1.
  [[nodiscard]] std::int64_t component_count() const {
    return static_cast<std::int64_t>(comp_t_.size());
  }

  // ---- lines (chain layout) ----------------------------------------------
  [[nodiscard]] std::int64_t c_min() const { return c_lo_; }
  [[nodiscard]] std::int64_t c_max() const { return c_hi_; }
  /// Total populated lines (== projected point count) in either layout.
  [[nodiscard]] std::uint64_t line_count() const { return line_count_; }
  /// Seed line index c* of component 0 (the dense lexicographic seed's
  /// line); component m's seed line is c* + m·lex_direction().
  [[nodiscard]] std::int64_t seed_line() const { return c_seed_; }
  /// Direction (±1) in which the scaled projection grows lexicographically
  /// with c — the order in which the dense grouping seeds components.
  [[nodiscard]] std::int64_t lex_direction() const { return lexdir_; }
  /// Signed slot stride γ_l = w·d_l (lex_direction() when degenerate).
  [[nodiscard]] std::int64_t slot_stride() const { return gamma_l_; }
  /// Residue component of line c (0 when unstrided).
  [[nodiscard]] std::int64_t component_of_line(std::int64_t c) const;
  /// Slot index of line c within its component: t = (c - c_seed_m)/γ_l.
  [[nodiscard]] std::int64_t slot_of_line(std::int64_t c) const;
  /// Points on line c (0 outside [c_min, c_max]); O(rows).
  [[nodiscard]] std::int64_t line_population(std::int64_t c) const;
  /// Σ line_population over [c1, c2] ∩ [c_min, c_max]; O(|interval|·rows).
  [[nodiscard]] std::uint64_t sum_line_populations(std::int64_t c1, std::int64_t c2) const;

  // ---- groups -------------------------------------------------------------
  /// Group of line c (chain layout): a = floor(t/r) in c's component.
  [[nodiscard]] GroupKey group_of_line(std::int64_t c) const;
  /// Extreme grouping-chain coordinates over all components/aux chains.
  [[nodiscard]] std::int64_t a_min() const { return a_min_; }
  [[nodiscard]] std::int64_t a_max() const { return a_max_; }
  [[nodiscard]] std::uint64_t group_count() const { return group_count_; }
  /// Dense Group::lattice coords: {} degenerate, {a} chain, {a, b} plane.
  [[nodiscard]] IntVec group_lattice_coord(const GroupKey& g) const;
  /// Inclusive line-index interval [c_first, c_last] of a chain group's
  /// slots, clipped to the populated range (boundary groups are partial; a
  /// strided group's interval also contains other components' lines).
  /// Plane layout: the group's inclusive slot interval [t_lo, t_hi] on its
  /// aux chain.
  [[nodiscard]] DimBounds group_line_range(const GroupKey& g) const;
  /// Block size of the group: Σ of its lines' populations; O(r·rows).
  [[nodiscard]] std::int64_t group_population(const GroupKey& g) const;
  /// Position in the canonical deterministic sort order — ascending
  /// (a, comp) for chains (identical to the dense mapper's β = 1 key:
  /// coordinate, then creation order) and ascending (a, b) for planes.
  [[nodiscard]] std::uint64_t sorted_index_of_group(const GroupKey& g) const;
  [[nodiscard]] GroupKey group_at_sorted_index(std::uint64_t k) const;
  /// Visit every group in canonical sorted order with its population;
  /// O(lines · rows) — the node-fault remap's block-size feed.
  void for_each_group(const std::function<void(const GroupKey&, std::int64_t pop)>& visit) const;

  /// One lattice box per slab (chain) or per aux chain (plane): the
  /// inclusive group-coordinate range along the grouping chain.  Chain
  /// boxes carry the slab's line-index interval in [c_lo, c_hi]; plane
  /// boxes carry the aux coordinate b in both.
  struct GroupBox {
    std::int64_t a_lo = 0;
    std::int64_t a_hi = 0;
    std::int64_t c_lo = 0;
    std::int64_t c_hi = 0;
  };
  [[nodiscard]] std::vector<GroupBox> enumerate_boxes() const;

  // ---- dependences --------------------------------------------------------
  [[nodiscard]] const std::vector<IntVec>& original_deps() const { return space_->dependences(); }
  /// Line-index shift of dependence k (chain layout): target line of an arc
  /// from line c is c + line_shift(k) (0 when d_k ∥ Π).
  [[nodiscard]] std::int64_t line_shift(std::size_t k) const { return shifts_[k].dx0; }
  /// Lattice shift of dependence k (plane layout): (Δt, Δb) in slot/aux
  /// coordinates.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> plane_shift(std::size_t k) const {
    return {shifts_[k].dx0, shifts_[k].dx1};
  }
  /// Scaled projected dependence s·d - (Π·d)·Π (dense pdep coordinates).
  [[nodiscard]] const IntVec& projected_dep_scaled(std::size_t k) const {
    return frame_.projected_deps_scaled()[k];
  }

  /// The full O(lines·deps) pass: block stats, partition stats, per-offset
  /// TIG weights, and (when `validate`) exact-cover/Theorem 1/Theorem 2/
  /// lemma verdicts.  One walk: O(lines·rows) range evaluations plus
  /// O(lines·(deps + r)) bookkeeping; memory O(deps + r + components).
  [[nodiscard]] LatticeSweepResult sweep(bool validate = true) const;

  /// Visit every populated line (group-contiguous order: component-major
  /// ascending slot for chains, aux-chain-major ascending slot for planes)
  /// as visit(group, population, first_step), first_step being the absolute
  /// step of its first point (Π·entry).  O(lines·rows), O(1) extra memory —
  /// the simulator's line feed.
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

  /// One aux chain of the plane layout: the inclusive slot run at aux
  /// coordinate b.
  struct PlaneChainRec {
    std::int64_t b = 0;
    std::int64_t t_lo = 0, t_hi = 0;
  };

  /// One populated line as a walker hands it out: its group, its k-interval
  /// [k_lo, k_hi] along u from the line's anchor, and Π·anchor.
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
  /// Per-dependence constants of the walk.  Chain: dx0 = γ_k (line-index
  /// shift); dcomp/dslot give the target line's residue component
  /// m' = m + dcomp (minus g on wrap, which adds wrap_slot_ to the slot
  /// shift) and slot shift t' - t.  Plane: (dx0, dx1) = (Δt, Δb).
  struct DepShift {
    std::int64_t dx0 = 0, dx1 = 0;
    std::int64_t kappa = 0;  ///< p(x) + d_k = p(x + shift_k) + κ_k·u
    std::int64_t dcomp = 0, dslot = 0;
  };

  /// The walkers: visit(line, arc) for every populated line of chain
  /// component m with slot t in [t_lo, t_hi] (resp. of aux chain `ch`),
  /// ascending; arc(k) yields a WalkArc on demand, so a visitor that never
  /// asks pays for no target range.  The chain walker keeps the last
  /// 2·max|γ_k| + 1 line ranges in a ring, so a line's range is evaluated
  /// once even when it is also its neighbours' target.
  template <class F>
  void walk_chain(std::size_t m, std::int64_t t_lo, std::int64_t t_hi, F&& visit) const;
  template <class F>
  void walk_plane(const PlaneChainRec& ch, std::int64_t t_lo, std::int64_t t_hi,
                  F&& visit) const;
  /// Every populated line of the lattice, group-contiguous.
  template <class F>
  void walk(F&& visit) const;

  /// Plane chain index holding aux coordinate b; nullptr when absent.
  [[nodiscard]] const PlaneChainRec* plane_chain(std::int64_t b) const;

  const IterSpace* space_ = nullptr;
  ProjectionFrame frame_;  ///< s, u, σ and the scaled projected dependences
  GroupingChoice choice_;  ///< r, d_l^p and Ψ (Steps 1-2)
  LatticeLayout layout_ = LatticeLayout::Chain;
  IntVec w_;       ///< chain: primitive line-index vector
  std::vector<DepShift> shifts_;   ///< per-dependence walk constants
  /// Line anchors p(x) = origin + x_0·gens[0] (+ x_1·gens[1]) and the bounds
  /// compiled along them: form_.range(x) == line_range(line_anchor(x), u).
  IntVec anchor_origin_;
  std::vector<IntVec> anchor_gens_;
  LineForm form_;
  std::int64_t step_base_ = 0;  ///< Π·origin
  std::int64_t step_x0_ = 0;    ///< Π·gens[0]
  std::int64_t step_x1_ = 0;    ///< Π·gens[1] (plane)
  std::uint64_t line_count_ = 0;
  std::uint64_t group_count_ = 0;
  std::int64_t a_min_ = 0, a_max_ = 0;

  // Chain layout state.
  std::int64_t c_lo_ = 0, c_hi_ = 0;
  std::int64_t c_seed_ = 0;   ///< component 0's seed line
  std::int64_t lexdir_ = 1;   ///< ±1: lex order of ĵ(c) along c
  std::int64_t gamma_l_ = 1;  ///< signed slot stride (γ_l; lexdir_ when degenerate)
  std::int64_t wrap_slot_ = 0;///< slot-shift correction when a target's component wraps
  std::size_t ring_size_ = 1; ///< power of two >= 2·max|γ_k| + 1
  /// Per-component inclusive slot range [t_min, t_max] (size 1 unless
  /// strided).  Component m's lines are c_seed_ + m·lexdir_ + t·γ_l.
  std::vector<std::pair<std::int64_t, std::int64_t>> comp_t_;

  // Plane layout state.
  IntVec avec_, bvec_;        ///< dual functionals (cross products), D-normalized
  std::int64_t ddet_ = 1;     ///< shared divisor D = det(d_l^p, d_a^p, Π) > 0
  std::vector<PlaneChainRec> chains_;  ///< ascending b, one per aux chain
};

// ---- walkers ----------------------------------------------------------------

template <class F>
void GroupLattice::walk_chain(std::size_t m, std::int64_t t_lo, std::int64_t t_hi,
                              F&& visit) const {
  if (t_lo > t_hi) return;
  // Ring of the most recent line ranges, slot c mod ring_size_.  One line's
  // queries span [c - max|γ_k|, c + max|γ_k|], fewer lines than slots, so
  // they never evict each other.
  struct Slot {
    std::int64_t c, k_lo, k_hi;
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
  auto range_of = [&](std::int64_t c) -> const Slot& {
    Slot& s = ring[static_cast<std::uint64_t>(c) & mask];
    if (!s.filled || s.c != c) {
      const auto r = form_.range(c);
      s = r ? Slot{c, r->first, r->second, true} : Slot{c, 0, -1, true};
    }
    return s;
  };

  const std::int64_t mi = static_cast<std::int64_t>(m);
  const std::int64_t g = gamma_l_ < 0 ? -gamma_l_ : gamma_l_;
  std::int64_t c = detail::checked_add(c_seed_ + mi * lexdir_, detail::checked_mul(t_lo, gamma_l_));
  std::int64_t step_anchor = detail::checked_mul(c, step_x0_);
  const std::int64_t step_stride = detail::checked_mul(gamma_l_, step_x0_);
  std::int64_t a = floor_div(t_lo, choice_.r);
  std::int64_t pos = t_lo - a * choice_.r;  // slot within group a
  for (std::int64_t t = t_lo;; ++t) {
    const Slot& src = range_of(c);
    if (src.k_lo <= src.k_hi) {
      const WalkLine line{degenerate() ? GroupKey{t, 0, t} : GroupKey{a, 0, mi}, src.k_lo,
                          src.k_hi, step_anchor};
      visit(line, [&](std::size_t k) {
        const DepShift& s = shifts_[k];
        const Slot& tgt = range_of(detail::checked_add(c, s.dx0));
        WalkArc arc;
        arc.k_lo = detail::checked_sub(tgt.k_lo, s.kappa);
        arc.k_hi = detail::checked_sub(tgt.k_hi, s.kappa);
        if (degenerate()) {
          arc.dst = line.g;  // every dependence is parallel to the lines
        } else {
          std::int64_t mt = mi + s.dcomp, dt = s.dslot;
          if (mt >= g) {
            mt -= g;
            dt += wrap_slot_;
          }
          arc.dst = GroupKey{floor_div(t + dt, choice_.r), 0, mt};
        }
        return arc;
      });
    }
    if (t == t_hi) break;
    c += gamma_l_;
    step_anchor = detail::checked_add(step_anchor, step_stride);
    if (++pos == choice_.r) {
      ++a;
      pos = 0;
    }
  }
}

template <class F>
void GroupLattice::walk_plane(const PlaneChainRec& ch, std::int64_t t_lo, std::int64_t t_hi,
                              F&& visit) const {
  if (t_lo > t_hi) return;
  std::int64_t step_anchor = detail::checked_add(
      detail::checked_add(step_base_, detail::checked_mul(t_lo, step_x0_)),
      detail::checked_mul(ch.b, step_x1_));
  std::int64_t a = floor_div(t_lo, choice_.r);
  std::int64_t pos = t_lo - a * choice_.r;
  for (std::int64_t t = t_lo;; ++t) {
    if (const auto range = form_.range(t, ch.b)) {
      const WalkLine line{GroupKey{a, ch.b, 0}, range->first, range->second, step_anchor};
      visit(line, [&](std::size_t k) {
        const DepShift& s = shifts_[k];
        const std::int64_t tt = t + s.dx0, bt = ch.b + s.dx1;
        WalkArc arc;
        if (const auto target = form_.range(tt, bt)) {
          arc.k_lo = detail::checked_sub(target->first, s.kappa);
          arc.k_hi = detail::checked_sub(target->second, s.kappa);
        }
        arc.dst = GroupKey{floor_div(tt, choice_.r), bt, 0};
        return arc;
      });
    }
    if (t == t_hi) break;
    step_anchor = detail::checked_add(step_anchor, step_x0_);
    if (++pos == choice_.r) {
      ++a;
      pos = 0;
    }
  }
}

template <class F>
void GroupLattice::walk(F&& visit) const {
  if (layout_ == LatticeLayout::Plane) {
    for (const PlaneChainRec& ch : chains_) walk_plane(ch, ch.t_lo, ch.t_hi, visit);
    return;
  }
  for (std::size_t m = 0; m < comp_t_.size(); ++m)
    walk_chain(m, comp_t_[m].first, comp_t_[m].second, visit);
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
    for (std::size_t k = 0; k < shifts_.size(); ++k) {
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
