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

/// Range [min w·j, max w·j] of the functional w over a slab box.
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

  // The layout-independent tail.  `locate(y)` names the coset and (t, b) of
  // the line through y, nullopt when that coset holds no line; it fills the
  // cosets × deps shift table from each coset's origin.
  struct Loc {
    std::int64_t comp, t, b;
  };
  auto finish = [&](const auto& locate) -> std::optional<GroupLattice> {
    gl.shifts_.resize(gl.cosets_.size() * nd);
    std::int64_t max_same_run = 0;
    for (std::size_t m = 0; m < gl.cosets_.size(); ++m) {
      for (std::size_t k = 0; k < nd; ++k) {
        const IntVec y = add(gl.cosets_[m].origin, deps[k]);
        const std::optional<Loc> at = locate(y);
        if (!at) continue;
        Shift& s = gl.shifts_[m * nd + k];
        s = Shift{at->comp, at->t, at->b,
                  line_multiple(sub(y, gl.line_anchor(at->comp, at->t, at->b)), u)};
        if (s.comp == static_cast<std::int64_t>(m) && s.db == 0)
          max_same_run = std::max(max_same_run, iabs(s.dt));
      }
    }
    gl.ring_size_ = std::bit_ceil(static_cast<std::uint64_t>(2 * max_same_run + 1));
    for (Coset& c : gl.cosets_) {
      c.form = space.line_form(c.origin, gl.gens_, u);
      c.step_base = dot(pi, c.origin);
    }
    gl.step_t_ = dot(pi, gl.gens_[0]);
    if (gl.gens_.size() == 2) gl.step_b_ = dot(pi, gl.gens_[1]);
    gl.a_min_ = std::numeric_limits<std::int64_t>::max();
    gl.a_max_ = std::numeric_limits<std::int64_t>::min();
    std::int64_t lines = 0, groups = 0;
    for (Run& run : gl.runs_) {
      run.a_lo = floor_div(run.t_lo, gl.choice_.r);
      run.a_hi = floor_div(run.t_hi, gl.choice_.r);
      gl.a_min_ = std::min(gl.a_min_, run.a_lo);
      gl.a_max_ = std::max(gl.a_max_, run.a_hi);
      run.first = static_cast<std::uint64_t>(groups);
      const std::int64_t span = detail::checked_sub(run.t_hi, run.t_lo);
      lines = detail::checked_add(lines, detail::checked_add(span, 1));
      groups = detail::checked_add(groups, detail::checked_add(run.a_hi - run.a_lo, 1));
    }
    gl.line_count_ = static_cast<std::uint64_t>(lines);
    gl.group_count_ = static_cast<std::uint64_t>(groups);
    return std::move(gl);
  };

  if (n == 2) {
    // ---- n = 2: residue cosets of the line index ---------------------------
    const IntVec w{u[1], -u[0]};
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
      if (w[i] != 1 && w[i] != -1) continue;
      have_unit = true;
      const std::size_t j = 1 - i;
      bool ok = true;
      space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
        std::int64_t ei = box[i].second - box[i].first + 1;
        std::int64_t ej = box[j].second - box[j].first + 1;
        if (iabs(w[j]) > ei && ej > 1) ok = false;
      });
      if (ok) {
        unit_axis = i;
        break;
      }
    }
    if (!have_unit) return fail("no-unit-w-entry");
    if (unit_axis == 2) return fail("slab-interval-hole");
    IntVec delta{0, 0};
    delta[unit_axis] = w[unit_axis];

    // Line-index interval: each slab box contributes its (contiguous) image;
    // the union over slabs must be one contiguous interval (a hole would
    // split the dense BFS chain and the closed forms would mislabel groups).
    std::vector<std::pair<std::int64_t, std::int64_t>> ivs;
    space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
      ivs.push_back(line_interval(w, box));
    });
    std::sort(ivs.begin(), ivs.end());
    std::int64_t c_lo = ivs.front().first;
    std::int64_t c_hi = ivs.front().second;
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].first > c_hi + 1) return fail("line-interval-hole");
      c_hi = std::max(c_hi, ivs[i].second);
    }
    const std::int64_t len = detail::checked_add(detail::checked_sub(c_hi, c_lo), 1);

    // The dense lexicographic seed is the lex-min scaled projected point;
    // ĵ(c) = c·v with v = proj(δ), so it sits at c_lo when v is
    // lex-positive, else at c_hi, and lines grow lexicographically in the
    // direction lexdir.  One slot step along d_l^p shifts c by γ_l = w·d_l
    // (lexdir when degenerate, every line its own group).  With
    // |γ_l| = g > 1 the dense region growing seeds residue class m at the
    // m-th line in lex order, c_seed + m·lexdir, so coset m's lines are
    // c = c_seed + m·lexdir + t·γ_l, anchored at c·δ.
    const std::int64_t lexdir = lex_positive(gl.frame_.project(delta)) ? 1 : -1;
    const std::int64_t c_seed = lexdir > 0 ? c_lo : c_hi;
    const std::int64_t gamma = l ? dot(w, deps[*l]) : lexdir;
    const std::int64_t g = iabs(gamma);
    const std::int64_t ncomp = std::min(g, len);
    gl.gens_ = {scale(delta, gamma)};
    for (std::int64_t m = 0; m < ncomp; ++m) {
      const std::int64_t cs = c_seed + m * lexdir;
      gl.cosets_.push_back(Coset{scale(delta, cs), {}, 0});
      const std::int64_t lo = detail::checked_sub(gamma > 0 ? c_lo : c_hi, cs);
      const std::int64_t hi = detail::checked_sub(gamma > 0 ? c_hi : c_lo, cs);
      gl.runs_.push_back(Run{m, 0, ceil_div(lo, gamma), floor_div(hi, gamma)});
    }
    return finish([&](const IntVec& y) -> std::optional<Loc> {
      const std::int64_t c = dot(w, y);
      const std::int64_t dc = detail::checked_sub(c, c_seed);
      const std::int64_t m = pos_mod(dc * lexdir, g);
      if (m >= ncomp) return std::nullopt;
      return Loc{m, (dc - m * lexdir) / gamma, 0};
    });
  }

  // ---- n = 3, β = 2: cosets of the (d_l, d_a) lattice ----------------------
  if (!l) return fail("3d-degenerate");
  const std::optional<std::size_t> ax = gl.auxiliary_vector_index();
  if (!ax) return fail("3d-beta-not-2");
  const IntVec& dlp = gl.projected_dep_scaled(*l);
  const IntVec& dap = gl.projected_dep_scaled(*ax);
  IntVec avec = cross3(dap, pi);
  IntVec bvec = cross3(pi, dlp);
  std::int64_t ddet = dot(avec, dlp);
  if (ddet == 0) return fail("3d-beta-not-2");
  if (ddet < 0) {
    ddet = -ddet;
    avec = scale(avec, -1);
    bvec = scale(bvec, -1);
  }
  // A and B are cross products with Π, so A·Π = B·Π = 0 and the folded
  // functionals QA(x) = project(A)·x = s·A(x) are constant along a line and
  // need only its entry point: QA(d_l) = A(d_l^p) = D, QA(d_a) = 0, and
  // likewise QB(d_a) = D, QB(d_l) = 0.
  const IntVec afold = gl.frame_.project(avec);
  const IntVec bfold = gl.frame_.project(bvec);

  // One O(lines) enumeration.  Per coset (keyed by the QA, QB residues mod
  // D, in discovery order) track the dense lexicographic seed and, per raw
  // b = (QB - rb)/D, the slot extremes and line count in a flat array
  // sized from QB's range over the slab boxes.
  std::int64_t qb_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t qb_max = std::numeric_limits<std::int64_t>::min();
  space.for_each_slab_box([&](const std::vector<DimBounds>& box) {
    const auto [lo, hi] = line_interval(bfold, box);
    qb_min = std::min(qb_min, lo);
    qb_max = std::max(qb_max, hi);
  });
  struct RunAcc {
    std::int64_t t_lo = 0, t_hi = 0;
    std::uint64_t count = 0;
  };
  struct CosetAcc {
    std::int64_t ra = 0, rb = 0;  ///< QA, QB residues mod D
    std::int64_t b_base = 0;      ///< raw b of runs[0]
    std::vector<RunAcc> runs;
    std::array<std::int64_t, 3> seed{};  ///< lex-min scaled projected point
    IntVec entry;                        ///< its line's entry point
    std::int64_t qa = 0, qb = 0;         ///< QA, QB of the seed line
  };
  std::vector<CosetAcc> found;
  std::size_t cur = 0;
  const std::int64_t s = gl.frame_.scale();
  space.for_each_line(u, [&](const IntVec& entry, std::int64_t) {
    const std::int64_t qa = dot(afold, entry), qb = dot(bfold, entry);
    const std::int64_t ra = pos_mod(qa, ddet), rb = pos_mod(qb, ddet);
    if (cur >= found.size() || found[cur].ra != ra || found[cur].rb != rb) {
      cur = 0;
      while (cur < found.size() && (found[cur].ra != ra || found[cur].rb != rb)) ++cur;
      if (cur == found.size()) {
        CosetAcc c;
        c.ra = ra;
        c.rb = rb;
        c.b_base = ceil_div(detail::checked_sub(qb_min, rb), ddet);
        c.runs.resize(static_cast<std::size_t>(
            floor_div(detail::checked_sub(qb_max, rb), ddet) - c.b_base + 1));
        found.push_back(std::move(c));
      }
    }
    CosetAcc& c = found[cur];
    const std::int64_t t = detail::checked_sub(qa, ra) / ddet;
    const std::int64_t b = detail::checked_sub(qb, rb) / ddet;
    RunAcc& acc = c.runs[static_cast<std::size_t>(b - c.b_base)];
    if (acc.count++ == 0) {
      acc.t_lo = acc.t_hi = t;
    } else {
      acc.t_lo = std::min(acc.t_lo, t);
      acc.t_hi = std::max(acc.t_hi, t);
    }
    const std::int64_t pe = dot(pi, entry);
    std::array<std::int64_t, 3> jp{};
    for (std::size_t i = 0; i < 3; ++i)
      jp[i] = detail::checked_sub(detail::checked_mul(s, entry[i]),
                                  detail::checked_mul(pe, pi[i]));
    if (c.entry.empty() || jp < c.seed) {
      c.seed = jp;
      c.entry = entry;
      c.qa = qa;
      c.qb = qb;
    }
  });
  if (found.empty()) return fail("empty-space");

  // Cosets in ascending seed order are the dense components.  Each run must
  // be one contiguous slot interval, else per-run interval queries would
  // miscount groups.
  std::sort(found.begin(), found.end(),
            [](const CosetAcc& x, const CosetAcc& y) { return x.seed < y.seed; });
  for (std::size_t m = 0; m < found.size(); ++m) {
    const CosetAcc& c = found[m];
    const std::int64_t t0 = detail::checked_sub(c.qa, c.ra) / ddet;
    const std::int64_t b0 = detail::checked_sub(c.qb, c.rb) / ddet;
    for (std::size_t i = 0; i < c.runs.size(); ++i) {
      const RunAcc& acc = c.runs[i];
      if (acc.count == 0) continue;
      if (acc.count != static_cast<std::uint64_t>(detail::checked_sub(acc.t_hi, acc.t_lo)) + 1)
        return fail("chain-noncontiguous");
      gl.runs_.push_back(Run{static_cast<std::int64_t>(m),
                             c.b_base + static_cast<std::int64_t>(i) - b0, acc.t_lo - t0,
                             acc.t_hi - t0});
    }
    gl.cosets_.push_back(Coset{c.entry, {}, 0});
  }
  std::sort(gl.runs_.begin(), gl.runs_.end(), [](const Run& x, const Run& y) {
    return std::tie(x.b, x.comp) < std::tie(y.b, y.comp);
  });
  gl.gens_ = {deps[*l], deps[*ax]};
  return finish([&](const IntVec& y) -> std::optional<Loc> {
    const std::int64_t qa = dot(afold, y), qb = dot(bfold, y);
    const std::int64_t ra = pos_mod(qa, ddet), rb = pos_mod(qb, ddet);
    for (std::size_t m = 0; m < found.size(); ++m)
      if (found[m].ra == ra && found[m].rb == rb)
        return Loc{static_cast<std::int64_t>(m), detail::checked_sub(qa, found[m].qa) / ddet,
                   detail::checked_sub(qb, found[m].qb) / ddet};
    return std::nullopt;
  });
}

IntVec GroupLattice::line_anchor(std::int64_t comp, std::int64_t t, std::int64_t b) const {
  IntVec p = add(cosets_[static_cast<std::size_t>(comp)].origin, scale(gens_[0], t));
  if (gens_.size() == 2) p = add(p, scale(gens_[1], b));
  return p;
}

std::size_t GroupLattice::run_of(const GroupKey& g) const {
  if (degenerate()) return g.a >= runs_[0].a_lo && g.a <= runs_[0].a_hi ? 0 : runs_.size();
  auto it = std::lower_bound(runs_.begin(), runs_.end(), g,
                             [](const Run& run, const GroupKey& key) {
                               return std::tie(run.b, run.comp) < std::tie(key.b, key.comp);
                             });
  if (it == runs_.end() || it->b != g.b || it->comp != g.comp || g.a < it->a_lo || g.a > it->a_hi)
    return runs_.size();
  return static_cast<std::size_t>(it - runs_.begin());
}

IntVec GroupLattice::group_lattice_coord(const GroupKey& g) const {
  if (degenerate()) return IntVec{};
  if (gens_.size() == 1) return IntVec{g.a};
  return IntVec{g.a, g.b};
}

DimBounds GroupLattice::group_line_range(const GroupKey& g) const {
  const std::size_t i = run_of(g);
  if (i == runs_.size()) return {0, -1};
  const std::int64_t first = degenerate() ? g.a : g.a * choice_.r;
  return {std::max(first, runs_[i].t_lo), std::min(first + choice_.r - 1, runs_[i].t_hi)};
}

std::int64_t GroupLattice::group_population(const GroupKey& g) const {
  const std::size_t i = run_of(g);
  if (i == runs_.size()) return 0;
  const auto [t_lo, t_hi] = group_line_range(g);
  std::int64_t total = 0;
  walk_run(runs_[i], t_lo, t_hi, [&](const WalkLine& line, const auto&) {
    total = detail::checked_add(total, line.k_hi - line.k_lo + 1);
  });
  return total;
}

std::uint64_t GroupLattice::sorted_index_of_group(const GroupKey& g) const {
  const std::size_t at = run_of(g);
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Run& run = runs_[i];
    const std::int64_t hi = std::min(run.a_hi, g.a - 1);
    if (hi >= run.a_lo) idx += static_cast<std::uint64_t>(hi - run.a_lo + 1);
    if (i < at && run.a_lo <= g.a && g.a <= run.a_hi) ++idx;
  }
  return idx;
}

GroupLattice::GroupKey GroupLattice::group_at_sorted_index(std::uint64_t k) const {
  if (k >= group_count_) throw std::out_of_range("group_at_sorted_index: no such group");
  // #groups with coordinate strictly below a, O(runs) per probe.
  auto below = [&](std::int64_t a) {
    std::uint64_t cnt = 0;
    for (const Run& run : runs_) {
      const std::int64_t hi = std::min(run.a_hi, a - 1);
      if (hi >= run.a_lo) cnt += static_cast<std::uint64_t>(hi - run.a_lo + 1);
    }
    return cnt;
  };
  std::int64_t lo = a_min_, hi = a_max_;
  while (lo < hi) {  // smallest a with below(a + 1) > k
    const std::int64_t mid = lo + floor_div(hi - lo, 2);
    if (below(mid + 1) > k) hi = mid;
    else lo = mid + 1;
  }
  std::uint64_t j = k - below(lo);
  for (const Run& run : runs_) {
    if (run.a_lo > lo || lo > run.a_hi) continue;
    if (j-- == 0) return key_at(run.comp, run.b, degenerate() ? lo : lo * choice_.r);
  }
  throw std::out_of_range("group_at_sorted_index: inconsistent lattice");
}

std::vector<std::int64_t> GroupLattice::population_prefix() const {
  std::vector<std::int64_t> pre(static_cast<std::size_t>(group_count_) + 1, 0);
  for (const Run& run : runs_) {
    walk_run(run, run.t_lo, run.t_hi, [&](const WalkLine& line, const auto&) {
      std::int64_t& slot = pre[run.first + static_cast<std::uint64_t>(line.g.a - run.a_lo) + 1];
      slot = detail::checked_add(slot, line.k_hi - line.k_lo + 1);
    });
  }
  for (std::size_t i = 1; i < pre.size(); ++i) pre[i] = detail::checked_add(pre[i], pre[i - 1]);
  return pre;
}

void GroupLattice::for_each_group(
    const std::function<void(const GroupKey&, std::int64_t)>& visit) const {
  const std::vector<std::int64_t> pre = population_prefix();
  for (std::int64_t a = a_min_; a <= a_max_; ++a) {
    for (const Run& run : runs_) {
      if (a < run.a_lo || a > run.a_hi) continue;
      const std::uint64_t at = run.first + static_cast<std::uint64_t>(a - run.a_lo);
      visit(key_at(run.comp, run.b, degenerate() ? a : a * choice_.r), pre[at + 1] - pre[at]);
    }
  }
}

LatticeSweepResult GroupLattice::sweep(bool validate) const {
  LatticeSweepResult out;
  using GroupOffset = LatticeSweepResult::GroupOffset;
  const std::size_t nd = original_deps().size();

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
