#include "partition/group_lattice.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "loop/dependence.hpp"

namespace hypart {

namespace {

IntVec cross3(const IntVec& x, const IntVec& y) {
  return IntVec{x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0]};
}

std::int64_t pos_mod(std::int64_t a, std::int64_t m) {
  std::int64_t r = a % m;
  return r < 0 ? r + m : r;
}

std::int64_t iabs(std::int64_t x) { return x < 0 ? -x : x; }

/// Line-index image [min w·j, max w·j] of a slab box.
std::pair<std::int64_t, std::int64_t> line_interval(const IntVec& w,
                                                    const std::vector<DimBounds>& box) {
  std::int64_t lo = 0, hi = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto [from, to] = w[i] >= 0 ? box[i] : DimBounds{box[i].second, box[i].first};
    lo = detail::checked_add(lo, detail::checked_mul(w[i], from));
    hi = detail::checked_add(hi, detail::checked_mul(w[i], to));
  }
  return {lo, hi};
}

/// κ with v = κ·u, for v on the line through 0 with primitive direction u.
std::int64_t line_multiple(const IntVec& v, const IntVec& u) {
  std::size_t i = 0;
  while (u[i] == 0) ++i;
  const std::int64_t kappa = v[i] / u[i];
  if (v != scale(u, kappa))
    throw std::logic_error("GroupLattice: dependence shift is not a multiple of the line");
  return kappa;
}

/// Tiny set of group offsets: per group and dependence at most a handful of
/// distinct offsets occur (a slot window of width < r lands in at most two
/// groups per lattice direction), so a linear-scan vector beats a node-based
/// std::set in the hot sweep.
struct OffsetSet {
  std::vector<LatticeSweepResult::GroupOffset> v;
  void insert(const LatticeSweepResult::GroupOffset& x) {
    if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
  }
  void merge_into(OffsetSet& o) const {
    for (const auto& x : v) o.insert(x);
  }
  [[nodiscard]] std::size_t size() const { return v.size(); }
  void clear() { v.clear(); }
};

}  // namespace

std::optional<GroupLattice> GroupLattice::build(const IterSpace& space, const TimeFunction& tf,
                                                const GroupingOptions& opts,
                                                std::string* fallback_reason) {
  auto fail = [&](const char* slug) -> std::optional<GroupLattice> {
    if (fallback_reason) *fallback_reason = slug;
    return std::nullopt;
  };
  const std::size_t n = space.dimension();
  if (n != 2 && n != 3) return fail("dimension-unsupported");
  if (space.empty()) return fail("empty-space");
  // Non-default seeding / auxiliary overrides change the dense numbering in
  // ways the closed forms do not model; the fallback path handles them (and
  // reproduces their validation errors).
  if (opts.seed_policy != SeedPolicy::Lexicographic) return fail("seed-policy");
  if (opts.auxiliary_vectors) return fail("aux-override");

  const IntVec& pi = tf.pi;
  if (pi.size() != n || is_zero(pi)) return fail("invalid-hyperplane");

  GroupLattice gl(ProjectionFrame(space.dependences(), tf));
  gl.space_ = &space;
  // Steps 1-2 exactly as the dense grouping takes them.  An override the
  // line-based path rejects, or one parallel to Π (a degenerate grouping
  // the closed forms do not model), falls back so that path decides.
  try {
    gl.choice_ = choose_grouping(gl.frame_, opts);
  } catch (const std::invalid_argument&) {
    return fail("invalid-grouping-override");
  }
  if (opts.grouping_vector && gl.degenerate()) return fail("invalid-grouping-override");
  const std::optional<std::size_t> l = gl.choice_.grouping;
  const IntVec& u = gl.line_direction();
  const std::vector<IntVec>& deps = space.dependences();
  const std::size_t nd = deps.size();

  if (n == 2) {
    // ---- chain layout -----------------------------------------------------
    gl.layout_ = LatticeLayout::Chain;
    gl.w_ = IntVec{u[1], -u[0]};
    gl.shifts_.resize(nd);
    for (std::size_t k = 0; k < nd; ++k) gl.shifts_[k].dx0 = dot(gl.w_, deps[k]);

    // Anchor axis: any axis where w has a unit entry (δ = that signed unit
    // vector, w·δ = 1).  Admission additionally needs every slab's
    // line-index image {w·j : j in box} to be a contiguous interval: with
    // unit coordinate i and other coordinate j the image is e_j runs of
    // length e_i shifted by w_j each, connected iff |w_j| <= e_i or there
    // is a single run.  Try each unit axis; a failure on all of them (or no
    // unit entry at all) falls back.
    bool have_unit = false;
    std::size_t unit_axis = 2;
    for (std::size_t i = 0; i < 2; ++i) {
      if (gl.w_[i] != 1 && gl.w_[i] != -1) continue;
      have_unit = true;
      const std::size_t j = 1 - i;
      bool ok = true;
      space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
        std::int64_t ei = box[i].second - box[i].first + 1;
        std::int64_t ej = box[j].second - box[j].first + 1;
        if (iabs(gl.w_[j]) > ei && ej > 1) ok = false;
      });
      if (ok) {
        unit_axis = i;
        break;
      }
    }
    if (!have_unit) return fail("no-unit-w-entry");
    if (unit_axis == 2) return fail("slab-interval-hole");
    IntVec delta{0, 0};
    delta[unit_axis] = gl.w_[unit_axis];

    // Line-index interval: each slab box contributes its (contiguous) image;
    // the union over slabs must be one contiguous interval (a hole would
    // split the dense BFS chain and the closed forms would mislabel groups).
    std::vector<std::pair<std::int64_t, std::int64_t>> ivs;
    space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
      ivs.push_back(line_interval(gl.w_, box));
    });
    std::sort(ivs.begin(), ivs.end());
    std::int64_t c_lo = ivs.front().first;
    std::int64_t c_hi = ivs.front().second;
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].first > c_hi + 1) return fail("line-interval-hole");
      c_hi = std::max(c_hi, ivs[i].second);
    }
    gl.c_lo_ = c_lo;
    gl.c_hi_ = c_hi;
    const std::int64_t len = detail::checked_add(detail::checked_sub(c_hi, c_lo), 1);
    gl.line_count_ = static_cast<std::uint64_t>(len);

    // Orientation and the seed line.  The dense lexicographic seed is the
    // lex-min scaled projected point; ĵ(c) = c·v with v = proj(δ), so it
    // sits at c_lo when v is lex-positive, else at c_hi.
    const bool lexpos = lex_positive(gl.frame_.project(delta));
    gl.lexdir_ = lexpos ? 1 : -1;
    gl.c_seed_ = lexpos ? c_lo : c_hi;

    // Anchors p(c) = c·δ.  d_k moves line c to line c + γ_k, and
    // d_k - γ_k·δ lies on the line through 0 (w·(d_k - γ_k·δ) = 0), so it is
    // κ_k·u with u primitive.
    gl.anchor_origin_ = IntVec{0, 0};
    gl.anchor_gens_ = {delta};
    std::int64_t max_shift = 0;
    for (std::size_t k = 0; k < nd; ++k) {
      DepShift& sh = gl.shifts_[k];
      sh.kappa = line_multiple(sub(deps[k], scale(delta, sh.dx0)), u);
      max_shift = std::max(max_shift, iabs(sh.dx0));
    }
    gl.ring_size_ = std::bit_ceil(static_cast<std::uint64_t>(2 * max_shift + 1));

    if (l) {
      // One slot step along d_l^p shifts the line index by γ_l = w·d_l.
      // With |γ_l| = g > 1 the lines split into g residue classes mod g;
      // the dense region growing seeds class m at the m-th line in lex
      // order (c_seed + m·lexdir), so component m's slot grid is
      // c = c_seed + m·lexdir + t·γ_l with group a = floor(t/r).
      gl.gamma_l_ = gl.shifts_[*l].dx0;
      const std::int64_t g = iabs(gl.gamma_l_);
      const std::int64_t ncomp = std::min(g, len);
      gl.comp_t_.reserve(static_cast<std::size_t>(ncomp));
      gl.a_min_ = std::numeric_limits<std::int64_t>::max();
      gl.a_max_ = std::numeric_limits<std::int64_t>::min();
      std::int64_t groups = 0;
      for (std::int64_t m = 0; m < ncomp; ++m) {
        const std::int64_t cs = gl.c_seed_ + m * gl.lexdir_;
        std::int64_t tmin, tmax;
        if (gl.gamma_l_ > 0) {
          tmin = ceil_div(detail::checked_sub(c_lo, cs), gl.gamma_l_);
          tmax = floor_div(detail::checked_sub(c_hi, cs), gl.gamma_l_);
        } else {
          tmin = ceil_div(detail::checked_sub(c_hi, cs), gl.gamma_l_);
          tmax = floor_div(detail::checked_sub(c_lo, cs), gl.gamma_l_);
        }
        gl.comp_t_.emplace_back(tmin, tmax);
        const std::int64_t a1 = floor_div(tmin, gl.choice_.r);
        const std::int64_t a2 = floor_div(tmax, gl.choice_.r);
        gl.a_min_ = std::min(gl.a_min_, a1);
        gl.a_max_ = std::max(gl.a_max_, a2);
        groups = detail::checked_add(groups, detail::checked_add(detail::checked_sub(a2, a1), 1));
      }
      gl.group_count_ = static_cast<std::uint64_t>(groups);
      // Target residue component and slot of line c + γ_k from component m:
      // m' = (m + γ_k·lexdir) mod g and t' = t + (γ_k + (m - m')·lexdir)/γ_l.
      // m + dcomp overshoots g at most once, which moves t' by g·lexdir/γ_l.
      gl.wrap_slot_ = gl.gamma_l_ > 0 ? gl.lexdir_ : -gl.lexdir_;
      for (DepShift& sh : gl.shifts_) {
        sh.dcomp = pos_mod(sh.dx0 * gl.lexdir_, g);
        sh.dslot = (sh.dx0 - sh.dcomp * gl.lexdir_) / gl.gamma_l_;
      }
    } else {
      // Degenerate: every line is its own group and its own dense
      // region-growing component; dense group/component ids follow the
      // lexicographic point order, i.e. ascending slot t = lexdir·(c - c*).
      gl.gamma_l_ = gl.lexdir_;
      gl.comp_t_.emplace_back(0, len - 1);
      gl.a_min_ = 0;
      gl.a_max_ = len - 1;
      gl.group_count_ = static_cast<std::uint64_t>(len);
    }
    gl.form_ = space.line_form(gl.anchor_origin_, gl.anchor_gens_, u);
    gl.step_x0_ = dot(pi, delta);
    return gl;
  }

  // ---- plane layout (n = 3, β = 2, single coset) --------------------------
  gl.layout_ = LatticeLayout::Plane;
  if (!l) return fail("3d-degenerate");
  const std::optional<std::size_t> ax = gl.auxiliary_vector_index();
  if (!ax) return fail("3d-beta-not-2");

  // Dual functionals: A(x) = x·(d_a^p × Π) and B(x) = x·(Π × d_l^p) with
  // shared divisor D = det(d_l^p, d_a^p, Π) satisfy A(d_l^p) = B(d_a^p) = D
  // and A(d_a^p) = B(d_l^p) = 0, so (t, b) = ((A(ĵ)-A(ĵ*))/D, (B(ĵ)-B(ĵ*))/D)
  // are the integer lattice coordinates of a projected point relative to the
  // dense seed ĵ* — provided every projected unit vector stays on the seed
  // coset (D divides both functionals on proj(e_i)).
  const IntVec& dlp = gl.projected_dep_scaled(*l);
  const IntVec& dap = gl.projected_dep_scaled(*ax);
  gl.avec_ = cross3(dap, pi);
  gl.bvec_ = cross3(pi, dlp);
  gl.ddet_ = dot(gl.avec_, dlp);
  if (gl.ddet_ == 0) return fail("3d-beta-not-2");
  if (gl.ddet_ < 0) {
    gl.ddet_ = -gl.ddet_;
    gl.avec_ = scale(gl.avec_, -1);
    gl.bvec_ = scale(gl.bvec_, -1);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    IntVec e(3);
    e[i] = 1;
    IntVec pe = gl.frame_.project(e);
    if (dot(gl.avec_, pe) % gl.ddet_ != 0 || dot(gl.bvec_, pe) % gl.ddet_ != 0)
      return fail("plane-multi-coset");
  }
  gl.shifts_.resize(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    gl.shifts_[k].dx0 = dot(gl.avec_, gl.projected_dep_scaled(k)) / gl.ddet_;
    gl.shifts_[k].dx1 = dot(gl.bvec_, gl.projected_dep_scaled(k)) / gl.ddet_;
  }

  // One O(lines) enumeration: per aux chain (fixed raw B) track the slot
  // extremes and the line count, and find the dense lexicographic seed.
  // A and B are cross products with Π, so A·Π = B·Π = 0 and
  // A(proj x) = (s·A - (A·Π)·Π)·x = s·A(x): each line's lattice coordinates
  // come straight from its entry point, and the projected point is needed
  // only componentwise for the lex comparison — nothing is allocated per line.
  const IntVec afold = gl.frame_.project(gl.avec_);
  const IntVec bfold = gl.frame_.project(gl.bvec_);
  struct Acc {
    std::int64_t t_lo, t_hi;
    std::uint64_t count;
  };
  std::map<std::int64_t, Acc> table;
  bool have_seed = false;
  std::array<std::int64_t, 3> jseed{};
  IntVec seed_entry(3);
  std::int64_t qa_seed = 0, qb_seed = 0;
  std::uint64_t nlines = 0;
  const std::int64_t s = gl.frame_.scale();
  space.for_each_line(u, [&](const IntVec& entry, std::int64_t) {
    const std::int64_t qa = dot(afold, entry) / gl.ddet_;
    const std::int64_t qb = dot(bfold, entry) / gl.ddet_;
    ++nlines;
    auto [it, fresh] = table.try_emplace(qb, Acc{qa, qa, 1});
    if (!fresh) {
      it->second.t_lo = std::min(it->second.t_lo, qa);
      it->second.t_hi = std::max(it->second.t_hi, qa);
      ++it->second.count;
    }
    const std::int64_t pe = dot(pi, entry);
    std::array<std::int64_t, 3> jp{};
    for (std::size_t i = 0; i < 3; ++i)
      jp[i] = detail::checked_sub(detail::checked_mul(s, entry[i]),
                                  detail::checked_mul(pe, pi[i]));
    if (!have_seed || jp < jseed) {
      have_seed = true;
      jseed = jp;
      std::copy(entry.begin(), entry.end(), seed_entry.begin());
      qa_seed = qa;
      qb_seed = qb;
    }
  });
  if (!have_seed) return fail("empty-space");
  gl.chains_.reserve(table.size());
  gl.a_min_ = std::numeric_limits<std::int64_t>::max();
  gl.a_max_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t groups = 0;
  for (const auto& [qb, acc] : table) {
    // Each aux chain must meet the domain in one contiguous slot run, else
    // per-chain interval queries would miscount groups.
    const std::int64_t run =
        detail::checked_add(detail::checked_sub(acc.t_hi, acc.t_lo), 1);
    if (acc.count != static_cast<std::uint64_t>(run)) return fail("chain-noncontiguous");
    PlaneChainRec rec;
    rec.b = detail::checked_sub(qb, qb_seed);
    rec.t_lo = detail::checked_sub(acc.t_lo, qa_seed);
    rec.t_hi = detail::checked_sub(acc.t_hi, qa_seed);
    gl.chains_.push_back(rec);
    const std::int64_t a1 = floor_div(rec.t_lo, gl.choice_.r);
    const std::int64_t a2 = floor_div(rec.t_hi, gl.choice_.r);
    gl.a_min_ = std::min(gl.a_min_, a1);
    gl.a_max_ = std::max(gl.a_max_, a2);
    groups = detail::checked_add(groups, detail::checked_add(detail::checked_sub(a2, a1), 1));
  }
  gl.group_count_ = static_cast<std::uint64_t>(groups);
  gl.line_count_ = nlines;
  gl.comp_t_.emplace_back(0, 0);  // single region-growing component
  gl.c_lo_ = 0;
  gl.c_hi_ = -1;  // chain line-index queries are inert for planes

  // Anchors p(t, b) = seed_entry + t·d_l + b·d_a.  d_k moves line (t, b) to
  // (t + Δt_k, b + Δb_k); d_k - Δt_k·d_l - Δb_k·d_a projects to
  // pdep_k - Δt_k·d_l^p - Δb_k·d_a^p = 0, so it is κ_k·u.
  const IntVec& dl = deps[*l];
  const IntVec& da = deps[*ax];
  gl.anchor_origin_ = std::move(seed_entry);
  gl.anchor_gens_ = {dl, da};
  for (std::size_t k = 0; k < nd; ++k) {
    DepShift& sh = gl.shifts_[k];
    sh.kappa = line_multiple(sub(sub(deps[k], scale(dl, sh.dx0)), scale(da, sh.dx1)), u);
  }
  gl.form_ = space.line_form(gl.anchor_origin_, gl.anchor_gens_, u);
  gl.step_base_ = dot(pi, gl.anchor_origin_);
  gl.step_x0_ = dot(pi, dl);
  gl.step_x1_ = dot(pi, da);
  return gl;
}

IntVec GroupLattice::line_anchor(std::int64_t x0, std::int64_t x1) const {
  IntVec p = add(anchor_origin_, scale(anchor_gens_[0], x0));
  if (anchor_gens_.size() == 2) p = add(p, scale(anchor_gens_[1], x1));
  return p;
}

const GroupLattice::PlaneChainRec* GroupLattice::plane_chain(std::int64_t b) const {
  auto it = std::lower_bound(
      chains_.begin(), chains_.end(), b,
      [](const PlaneChainRec& rec, std::int64_t key) { return rec.b < key; });
  if (it == chains_.end() || it->b != b) return nullptr;
  return &*it;
}

std::int64_t GroupLattice::component_of_line(std::int64_t c) const {
  if (layout_ == LatticeLayout::Plane || degenerate()) return 0;
  const std::int64_t g = iabs(gamma_l_);
  if (g <= 1) return 0;
  return pos_mod((c - c_seed_) * lexdir_, g);
}

std::int64_t GroupLattice::slot_of_line(std::int64_t c) const {
  if (layout_ == LatticeLayout::Plane) return 0;
  const std::int64_t cs = c_seed_ + component_of_line(c) * lexdir_;
  return (c - cs) / gamma_l_;
}

std::int64_t GroupLattice::line_population(std::int64_t c) const {
  if (c < c_lo_ || c > c_hi_) return 0;
  const auto range = form_.range(c);
  if (!range) return 0;
  return range->second - range->first + 1;
}

std::uint64_t GroupLattice::sum_line_populations(std::int64_t c1, std::int64_t c2) const {
  std::int64_t lo = std::max(c1, c_lo_);
  std::int64_t hi = std::min(c2, c_hi_);
  std::uint64_t total = 0;
  for (std::int64_t c = lo; c <= hi; ++c)
    total += static_cast<std::uint64_t>(line_population(c));
  return total;
}

GroupLattice::GroupKey GroupLattice::group_of_line(std::int64_t c) const {
  const std::int64_t t = slot_of_line(c);
  if (degenerate()) return GroupKey{t, 0, t};
  return GroupKey{floor_div(t, choice_.r), 0, component_of_line(c)};
}

IntVec GroupLattice::group_lattice_coord(const GroupKey& g) const {
  if (degenerate()) return IntVec{};
  if (layout_ == LatticeLayout::Chain) return IntVec{g.a};
  return IntVec{g.a, g.b};
}

DimBounds GroupLattice::group_line_range(const GroupKey& g) const {
  if (layout_ == LatticeLayout::Plane) {
    const PlaneChainRec* ch = plane_chain(g.b);
    if (!ch) return {0, -1};
    return {std::max(g.a * choice_.r, ch->t_lo), std::min(g.a * choice_.r + choice_.r - 1, ch->t_hi)};
  }
  if (degenerate()) {
    const std::int64_t c = c_seed_ + g.a * lexdir_;
    return {c, c};
  }
  const auto& [tmin, tmax] = comp_t_[static_cast<std::size_t>(g.comp)];
  const std::int64_t t_lo = std::max(g.a * choice_.r, tmin);
  const std::int64_t t_hi = std::min(g.a * choice_.r + choice_.r - 1, tmax);
  const std::int64_t cs = c_seed_ + g.comp * lexdir_;
  const std::int64_t c1 = cs + t_lo * gamma_l_;
  const std::int64_t c2 = cs + t_hi * gamma_l_;
  return {std::min(c1, c2), std::max(c1, c2)};
}

std::int64_t GroupLattice::group_population(const GroupKey& g) const {
  std::int64_t total = 0;
  auto add = [&](const WalkLine& line, const auto&) {
    total = detail::checked_add(total, line.k_hi - line.k_lo + 1);
  };
  if (layout_ == LatticeLayout::Plane) {
    const PlaneChainRec* ch = plane_chain(g.b);
    if (!ch) return 0;
    walk_plane(*ch, std::max(g.a * choice_.r, ch->t_lo), std::min(g.a * choice_.r + choice_.r - 1, ch->t_hi), add);
    return total;
  }
  if (degenerate()) return line_population(c_seed_ + g.a * lexdir_);
  const auto& [tmin, tmax] = comp_t_[static_cast<std::size_t>(g.comp)];
  walk_chain(static_cast<std::size_t>(g.comp), std::max(g.a * choice_.r, tmin),
             std::min(g.a * choice_.r + choice_.r - 1, tmax), add);
  return total;
}

std::uint64_t GroupLattice::sorted_index_of_group(const GroupKey& g) const {
  if (layout_ == LatticeLayout::Chain && degenerate())
    return static_cast<std::uint64_t>(g.a);
  std::uint64_t idx = 0;
  if (layout_ == LatticeLayout::Chain) {
    for (std::size_t m = 0; m < comp_t_.size(); ++m) {
      const std::int64_t a1 = floor_div(comp_t_[m].first, choice_.r);
      const std::int64_t a2 = floor_div(comp_t_[m].second, choice_.r);
      const std::int64_t hi = std::min(a2, g.a - 1);
      if (hi >= a1) idx += static_cast<std::uint64_t>(hi - a1 + 1);
      if (static_cast<std::int64_t>(m) < g.comp && a1 <= g.a && g.a <= a2) ++idx;
    }
  } else {
    for (const PlaneChainRec& ch : chains_) {
      const std::int64_t a1 = floor_div(ch.t_lo, choice_.r);
      const std::int64_t a2 = floor_div(ch.t_hi, choice_.r);
      const std::int64_t hi = std::min(a2, g.a - 1);
      if (hi >= a1) idx += static_cast<std::uint64_t>(hi - a1 + 1);
      if (ch.b < g.b && a1 <= g.a && g.a <= a2) ++idx;
    }
  }
  return idx;
}

GroupLattice::GroupKey GroupLattice::group_at_sorted_index(std::uint64_t k) const {
  if (k >= group_count_) throw std::out_of_range("group_at_sorted_index: no such group");
  if (layout_ == LatticeLayout::Chain && degenerate()) {
    const std::int64_t t = static_cast<std::int64_t>(k);
    return GroupKey{t, 0, t};
  }
  // #groups with coordinate strictly below a, O(components|chains) per probe.
  auto below = [&](std::int64_t a) {
    std::uint64_t cnt = 0;
    if (layout_ == LatticeLayout::Chain) {
      for (const auto& [tmin, tmax] : comp_t_) {
        const std::int64_t a1 = floor_div(tmin, choice_.r);
        const std::int64_t a2 = floor_div(tmax, choice_.r);
        const std::int64_t hi = std::min(a2, a - 1);
        if (hi >= a1) cnt += static_cast<std::uint64_t>(hi - a1 + 1);
      }
    } else {
      for (const PlaneChainRec& ch : chains_) {
        const std::int64_t a1 = floor_div(ch.t_lo, choice_.r);
        const std::int64_t a2 = floor_div(ch.t_hi, choice_.r);
        const std::int64_t hi = std::min(a2, a - 1);
        if (hi >= a1) cnt += static_cast<std::uint64_t>(hi - a1 + 1);
      }
    }
    return cnt;
  };
  std::int64_t lo = a_min_, hi = a_max_;
  while (lo < hi) {  // smallest a with below(a + 1) > k
    const std::int64_t mid = lo + floor_div(hi - lo, 2);
    if (below(mid + 1) > k) hi = mid;
    else lo = mid + 1;
  }
  const std::int64_t a = lo;
  std::uint64_t j = k - below(a);
  if (layout_ == LatticeLayout::Chain) {
    for (std::size_t m = 0; m < comp_t_.size(); ++m) {
      const std::int64_t a1 = floor_div(comp_t_[m].first, choice_.r);
      const std::int64_t a2 = floor_div(comp_t_[m].second, choice_.r);
      if (a1 <= a && a <= a2) {
        if (j == 0) return GroupKey{a, 0, static_cast<std::int64_t>(m)};
        --j;
      }
    }
  } else {
    for (const PlaneChainRec& ch : chains_) {
      const std::int64_t a1 = floor_div(ch.t_lo, choice_.r);
      const std::int64_t a2 = floor_div(ch.t_hi, choice_.r);
      if (a1 <= a && a <= a2) {
        if (j == 0) return GroupKey{a, ch.b, 0};
        --j;
      }
    }
  }
  throw std::out_of_range("group_at_sorted_index: inconsistent lattice");
}

void GroupLattice::for_each_group(
    const std::function<void(const GroupKey&, std::int64_t)>& visit) const {
  if (layout_ == LatticeLayout::Chain && degenerate()) {
    // Every line is its own group, in slot order.
    walk([&](const WalkLine& line, const auto&) { visit(line.g, line.k_hi - line.k_lo + 1); });
    return;
  }
  for (std::int64_t a = a_min_; a <= a_max_; ++a) {
    if (layout_ == LatticeLayout::Chain) {
      for (std::size_t m = 0; m < comp_t_.size(); ++m) {
        const std::int64_t a1 = floor_div(comp_t_[m].first, choice_.r);
        const std::int64_t a2 = floor_div(comp_t_[m].second, choice_.r);
        if (a1 <= a && a <= a2) {
          const GroupKey g{a, 0, static_cast<std::int64_t>(m)};
          visit(g, group_population(g));
        }
      }
    } else {
      for (const PlaneChainRec& ch : chains_) {
        const std::int64_t a1 = floor_div(ch.t_lo, choice_.r);
        const std::int64_t a2 = floor_div(ch.t_hi, choice_.r);
        if (a1 <= a && a <= a2) {
          const GroupKey g{a, ch.b, 0};
          visit(g, group_population(g));
        }
      }
    }
  }
}

std::vector<GroupLattice::GroupBox> GroupLattice::enumerate_boxes() const {
  std::vector<GroupBox> boxes;
  if (layout_ == LatticeLayout::Plane) {
    boxes.reserve(chains_.size());
    for (const PlaneChainRec& ch : chains_)
      boxes.push_back(GroupBox{floor_div(ch.t_lo, choice_.r), floor_div(ch.t_hi, choice_.r), ch.b, ch.b});
    return boxes;
  }
  const std::int64_t gabs = std::max<std::int64_t>(1, iabs(gamma_l_));
  space_->for_each_slab_box([&](const std::vector<DimBounds>& box) {
    const auto [lo, hi] = line_interval(w_, box);
    // Extreme grouping-chain coordinates over every residue component whose
    // lines meet this slab's interval (a is monotone in c per component).
    std::int64_t a_lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t a_hi = std::numeric_limits<std::int64_t>::min();
    for (std::size_t m = 0; m < comp_t_.size(); ++m) {
      const std::int64_t cs =
          c_seed_ + (degenerate() ? 0 : static_cast<std::int64_t>(m)) * lexdir_;
      const std::int64_t cm_lo = lo + pos_mod(cs - lo, gabs);
      if (cm_lo > hi) continue;
      const std::int64_t cm_hi = hi - pos_mod(hi - cs, gabs);
      const std::int64_t a1 = group_of_line(cm_lo).a;
      const std::int64_t a2 = group_of_line(cm_hi).a;
      a_lo = std::min(a_lo, std::min(a1, a2));
      a_hi = std::max(a_hi, std::max(a1, a2));
    }
    if (a_lo > a_hi) a_lo = a_hi = 0;
    boxes.push_back(GroupBox{a_lo, a_hi, lo, hi});
  });
  return boxes;
}

LatticeSweepResult GroupLattice::sweep(bool validate) const {
  LatticeSweepResult out;
  using GroupOffset = LatticeSweepResult::GroupOffset;
  const std::size_t nd = shifts_.size();

  // A dependence moves between lines iff its projection is nonzero; it is
  // "special" (Lemma 2) if its projected vector equals the grouping or an
  // auxiliary vector — the dense checker's is_special_direction.
  std::vector<char> moving(nd), special(nd);
  std::vector<std::size_t> lemma2_dirs = choice_.aux;
  if (choice_.grouping) lemma2_dirs.insert(lemma2_dirs.begin(), *choice_.grouping);
  for (std::size_t k = 0; k < nd; ++k) {
    const IntVec& pk = projected_dep_scaled(k);
    moving[k] = !is_zero(pk);
    special[k] = std::any_of(lemma2_dirs.begin(), lemma2_dirs.end(), [&](std::size_t j) {
      return k == j || pk == projected_dep_scaled(j);
    });
  }

  // Per-group rolling state (O(r + deps), reset at each group boundary).
  struct LineRec {
    std::int64_t first_step;
    std::int64_t pop;
  };
  std::vector<LineRec> window;
  window.reserve(static_cast<std::size_t>(choice_.r));
  std::vector<OffsetSet> dep_offs(nd);  // per-dep distinct group offsets
  OffsetSet succ;                       // union over deps (out-degree)
  std::int64_t acc = 0;                 // current group's iteration count
  bool group_open = false;
  GroupKey cur{};
  // Arc weight per (dep, offset): a handful of offsets per dependence, so a
  // flat table per dependence, folded into the result's map at the end.
  std::vector<std::vector<std::pair<GroupOffset, std::int64_t>>> weights(nd);

  out.theorem1 = true;
  out.lemmas.lemma2_holds = true;
  out.lemmas.lemma3_holds = true;
  out.stats.min_block = std::numeric_limits<std::int64_t>::max();
  std::uint64_t covered = 0;
  std::size_t arc_total = 0, arc_inter = 0;

  auto close_group = [&]() {
    if (!group_open) return;
    ++out.stats.group_count;
    out.stats.min_block = std::min(out.stats.min_block, acc);
    out.stats.max_block = std::max(out.stats.max_block, acc);
    if (validate) {
      succ.clear();
      for (std::size_t k = 0; k < nd; ++k) {
        if (!moving[k]) continue;
        const std::size_t fan = dep_offs[k].size();
        if (special[k]) {
          out.lemmas.worst_lemma2_fanout = std::max(out.lemmas.worst_lemma2_fanout, fan);
          if (fan > 1) out.lemmas.lemma2_holds = false;
        } else {
          out.lemmas.worst_lemma3_fanout = std::max(out.lemmas.worst_lemma3_fanout, fan);
          if (fan > 2) out.lemmas.lemma3_holds = false;
        }
        dep_offs[k].merge_into(succ);
        dep_offs[k].clear();
      }
      out.theorem2.max_out_degree = std::max(out.theorem2.max_out_degree, succ.size());
    }
    window.clear();
    acc = 0;
  };

  // One populated line of group g: Theorem 1 window, arc bundles, offsets.
  walk([&](const WalkLine& line, const auto& arc_of) {
    const GroupKey& g = line.g;
    if (!group_open || !(g == cur)) {
      close_group();
      group_open = true;
      cur = g;
    }
    const std::int64_t pop = line.k_hi - line.k_lo + 1;
    const std::int64_t first_step =
        detail::checked_add(line.step_anchor, detail::checked_mul(line.k_lo, step_stride()));
    covered += static_cast<std::uint64_t>(pop);
    acc = detail::checked_add(acc, pop);

    if (validate) {
      // Theorem 1 within the group: lines collide iff their step APs
      // (first + k·σ, k in [0, pop)) intersect — same test as the dense
      // checker, against every earlier line of this group.
      for (const LineRec& o : window) {
        const std::int64_t diff = first_step - o.first_step;
        if (diff % step_stride() != 0) continue;
        const std::int64_t msh = diff / step_stride();
        if (msh >= -(pop - 1) && msh <= o.pop - 1) out.theorem1 = false;
      }
      window.push_back(LineRec{first_step, pop});
    }

    for (std::size_t k = 0; k < nd; ++k) {
      // Group-digraph edges use projected-point existence (the dense
      // checker's find_point semantics), not arc counts: an edge exists
      // whenever the shifted line is populated.
      const WalkArc arc = arc_of(k);
      const bool has_dst = moving[k] && arc.populated();
      GroupOffset off{};
      if (has_dst) off = GroupOffset{arc.dst.a - g.a, arc.dst.b - g.b, arc.dst.comp - g.comp};
      const std::int64_t lo2 = std::max(line.k_lo, arc.k_lo);
      const std::int64_t hi2 = std::min(line.k_hi, arc.k_hi);
      if (lo2 <= hi2) {
        const std::int64_t count = hi2 - lo2 + 1;
        arc_total += static_cast<std::size_t>(count);
        if (!(off == GroupOffset{})) arc_inter += static_cast<std::size_t>(count);
        auto& table = weights[k];
        auto it = std::find_if(table.begin(), table.end(),
                               [&](const auto& entry) { return entry.first == off; });
        if (it == table.end()) table.emplace_back(off, count);
        else it->second = detail::checked_add(it->second, count);
      }
      if (validate && has_dst && !(off == GroupOffset{})) dep_offs[k].insert(off);
    }
  });
  close_group();

  for (std::size_t k = 0; k < nd; ++k)
    for (const auto& [off, weight] : weights[k]) out.offset_weights[{k, off}] = weight;
  out.stats.total_iterations = covered;
  if (out.stats.group_count == 0) out.stats.min_block = 0;
  out.partition.total_arcs = arc_total;
  out.partition.interblock_arcs = arc_inter;
  out.partition.intrablock_arcs = arc_total - arc_inter;
  out.exact_cover = covered == space_->size();
  if (validate) {
    out.theorem2.m = nd;
    out.theorem2.beta = beta();
    out.theorem2.bound = 2 * nd - beta();
    out.theorem2.holds = out.theorem2.max_out_degree <= out.theorem2.bound;
  }
  return out;
}

}  // namespace hypart
