#include "partition/grouping.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace hypart {

std::vector<std::size_t> Group::members() const {
  std::vector<std::size_t> m;
  for (const std::optional<std::size_t>& s : slots)
    if (s) m.push_back(*s);
  return m;
}

std::size_t Group::size() const {
  return static_cast<std::size_t>(std::count_if(
      slots.begin(), slots.end(), [](const std::optional<std::size_t>& s) { return s.has_value(); }));
}

std::size_t Grouping::group_of_point(std::size_t point_id) const {
  if (point_id >= point_group_.size() || point_group_[point_id] == SIZE_MAX)
    throw std::out_of_range("Grouping::group_of_point: ungrouped point id");
  return point_group_[point_id];
}

namespace {

/// Bounding box of the scaled projected points, expanded by `margin` per
/// coordinate; used to bound the region-growing lattice walk.
struct Box {
  IntVec lo, hi;
  [[nodiscard]] bool contains(const IntVec& p) const {
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    return true;
  }
};

Box bounding_box(const std::vector<IntVec>& pts, const std::vector<IntVec>& steps,
                 std::int64_t r) {
  Box b{pts.front(), pts.front()};
  for (const IntVec& p : pts)
    for (std::size_t i = 0; i < p.size(); ++i) {
      b.lo[i] = std::min(b.lo[i], p[i]);
      b.hi[i] = std::max(b.hi[i], p[i]);
    }
  for (std::size_t i = 0; i < b.lo.size(); ++i) {
    std::int64_t margin = 1;
    for (const IntVec& s : steps) {
      std::int64_t a = s[i] < 0 ? -s[i] : s[i];
      margin = std::max(margin, (r + 1) * a);
    }
    b.lo[i] -= margin;
    b.hi[i] += margin;
  }
  return b;
}

}  // namespace

GroupingChoice choose_grouping(const ProjectionFrame& frame, const GroupingOptions& opts) {
  const std::vector<IntVec>& pdeps = frame.projected_deps_scaled();
  GroupingChoice c;
  c.beta = frame.projected_rank();

  // ---- Step 1: group size r and grouping vector ---------------------------
  for (std::size_t k = 0; k < pdeps.size(); ++k) c.r = std::max(c.r, frame.replication_factor(k));
  if (opts.grouping_vector) {
    std::size_t l = *opts.grouping_vector;
    if (l >= pdeps.size()) throw std::invalid_argument("Grouping: grouping_vector out of range");
    if (frame.replication_factor(l) != c.r)
      throw std::invalid_argument(
          "Grouping: overridden grouping vector does not attain the maximal r");
    c.grouping = l;
  } else {
    for (std::size_t k = 0; k < pdeps.size(); ++k) {
      if (!is_zero(pdeps[k]) && frame.replication_factor(k) == c.r) {
        c.grouping = k;
        break;
      }
    }
  }
  // Degenerate structure: every dependence is parallel to Π (or D empty).
  if (!c.grouping || is_zero(pdeps[*c.grouping])) return GroupingChoice{};
  const std::size_t l = *c.grouping;

  // ---- Step 2: auxiliary grouping vectors ---------------------------------
  std::vector<RatVec> span_basis{frame.projected_dep_rational(l)};
  if (opts.auxiliary_vectors) {
    for (std::size_t k : *opts.auxiliary_vectors) {
      if (k >= pdeps.size()) throw std::invalid_argument("Grouping: auxiliary index out of range");
      if (k == l || is_zero(pdeps[k]))
        throw std::invalid_argument("Grouping: auxiliary vector equals grouping vector or zero");
      RatVec cand = frame.projected_dep_rational(k);
      if (in_span(span_basis, cand))
        throw std::invalid_argument(
            "Grouping: overridden auxiliary vectors are not linearly independent");
      span_basis.push_back(std::move(cand));
      c.aux.push_back(k);
    }
    if (c.aux.size() + 1 != c.beta)
      throw std::invalid_argument("Grouping: need exactly beta-1 auxiliary vectors");
  } else {
    // Greedily pick β-1 projected dependences that extend the span of d_l^p.
    for (std::size_t k = 0; k < pdeps.size() && c.aux.size() + 1 < c.beta; ++k) {
      if (k == l || is_zero(pdeps[k])) continue;
      RatVec cand = frame.projected_dep_rational(k);
      if (in_span(span_basis, cand)) continue;
      span_basis.push_back(std::move(cand));
      c.aux.push_back(k);
    }
  }
  return c;
}

Grouping Grouping::compute(const ProjectedStructure& ps, const GroupingOptions& opts) {
  Grouping g;
  g.ps_ = &ps;
  const std::vector<IntVec>& pdeps = ps.projected_deps_scaled();
  const std::size_t npts = ps.point_count();
  g.point_group_.assign(npts, SIZE_MAX);
  g.choice_ = choose_grouping(ps.frame(), opts);

  // Every projected point forms its own group when Step 1 finds no vector.
  if (!g.choice_.grouping) {
    for (std::size_t p = 0; p < npts; ++p) {
      Group grp;
      grp.base = ps.points()[p];
      grp.slots = {p};
      grp.lattice = {};
      grp.component = p;
      g.point_group_[p] = g.groups_.size();
      g.groups_.push_back(std::move(grp));
    }
    return g;
  }
  const std::size_t l = *g.choice_.grouping;
  const std::int64_t r = g.choice_.r;

  // ---- Steps 3-5: region growing over the group-base lattice --------------
  const IntVec& slot_step = pdeps[l];          // spacing between slots (scaled)
  const IntVec group_step = scale(slot_step, r);  // spacing between neighbor groups
  std::vector<IntVec> all_steps{group_step};
  for (std::size_t k : g.choice_.aux) all_steps.push_back(pdeps[k]);
  Box box = bounding_box(ps.points(), all_steps, r);

  const std::size_t lattice_dim = 1 + g.choice_.aux.size();
  std::unordered_set<IntVec, IntVecHash> visited;
  std::size_t ungrouped = npts;
  std::size_t explicit_cursor = 0;
  std::size_t component = 0;

  auto next_seed = [&]() -> std::optional<std::size_t> {
    if (opts.seed_policy == SeedPolicy::ExplicitBases) {
      while (explicit_cursor < opts.explicit_bases.size()) {
        std::optional<std::size_t> id = ps.find_point(opts.explicit_bases[explicit_cursor]);
        ++explicit_cursor;
        if (id && g.point_group_[*id] == SIZE_MAX) return id;
      }
    }
    // Lexicographic fallback: points() is sorted, so scan in order.
    for (std::size_t p = 0; p < npts; ++p)
      if (g.point_group_[p] == SIZE_MAX) return p;
    return std::nullopt;
  };

  while (ungrouped > 0) {
    std::optional<std::size_t> seed = next_seed();
    if (!seed) break;
    IntVec seed_base = ps.points()[*seed];

    struct Pending {
      IntVec base;
      IntVec lattice;
    };
    std::deque<Pending> frontier;
    frontier.push_back({seed_base, IntVec(lattice_dim, 0)});
    visited.insert(seed_base);

    while (!frontier.empty()) {
      Pending cur = std::move(frontier.front());
      frontier.pop_front();

      // Materialize the group at this base: slot k = base + k*d_l^p.
      Group grp;
      grp.base = cur.base;
      grp.lattice = cur.lattice;
      grp.component = component;
      grp.slots.assign(static_cast<std::size_t>(r), std::nullopt);
      std::size_t populated = 0;
      IntVec slot = cur.base;
      for (std::int64_t k = 0; k < r; ++k) {
        std::optional<std::size_t> id = ps.find_point(slot);
        if (id && g.point_group_[*id] == SIZE_MAX) {
          grp.slots[static_cast<std::size_t>(k)] = *id;
          ++populated;
        }
        if (k + 1 < r) slot = add(slot, slot_step);
      }
      if (populated > 0) {
        std::size_t gid = g.groups_.size();
        for (const std::optional<std::size_t>& s : grp.slots)
          if (s) g.point_group_[*s] = gid;
        ungrouped -= populated;
        g.groups_.push_back(std::move(grp));
      }

      // Expand to forward/backward neighbors along every lattice direction.
      for (std::size_t dir = 0; dir < lattice_dim; ++dir) {
        const IntVec& step = all_steps[dir];
        for (int sign : {+1, -1}) {
          IntVec nb = sign > 0 ? add(cur.base, step) : sub(cur.base, step);
          if (!box.contains(nb)) continue;
          if (visited.contains(nb)) continue;
          visited.insert(nb);
          IntVec nl = cur.lattice;
          nl[dir] += sign;
          frontier.push_back({std::move(nb), std::move(nl)});
        }
      }
    }
    ++component;
  }

  if (ungrouped != 0)
    throw std::logic_error("Grouping: region growing failed to cover all projected points");
  return g;
}

std::vector<IntVec> Grouping::lattice_directions() const {
  std::vector<IntVec> dirs;
  if (!choice_.grouping) return dirs;
  const std::vector<IntVec>& pdeps = ps_->projected_deps_scaled();
  dirs.push_back(scale(pdeps[*choice_.grouping], choice_.r));
  for (std::size_t k : choice_.aux) dirs.push_back(pdeps[k]);
  return dirs;
}

Digraph Grouping::group_digraph() const {
  Digraph dg(groups_.size());
  const std::vector<IntVec>& pdeps = ps_->projected_deps_scaled();
  for (std::size_t p = 0; p < ps_->point_count(); ++p) {
    for (const IntVec& dp : pdeps) {
      if (is_zero(dp)) continue;
      std::optional<std::size_t> q = ps_->find_point(add(ps_->points()[p], dp));
      if (!q) continue;
      std::size_t gp = point_group_[p];
      std::size_t gq = point_group_[*q];
      if (gp != gq) dg.add_edge(gp, gq, 1);
    }
  }
  return dg;
}

}  // namespace hypart
