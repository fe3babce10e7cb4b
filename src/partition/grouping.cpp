#include "partition/grouping.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/error.hpp"

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

/// A per-coordinate box of scaled points.
struct Box {
  IntVec lo, hi;
  [[nodiscard]] bool contains(const IntVec& p) const {
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    return true;
  }
};

/// Bounding box of the scaled projected points.
Box bounding_box(const std::vector<IntVec>& pts) {
  Box b{pts.front(), pts.front()};
  for (const IntVec& p : pts)
    for (std::size_t i = 0; i < p.size(); ++i) {
      b.lo[i] = std::min(b.lo[i], p[i]);
      b.hi[i] = std::max(b.hi[i], p[i]);
    }
  return b;
}

/// `b` expanded by a margin of max(1, (r+1)·|step_i|) per coordinate; it
/// bounds the region-growing lattice walk.
Box widened(Box b, const std::vector<IntVec>& steps, std::int64_t r) {
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

/// Rows of `dim` coordinates stored flat by id (insertion order), with an
/// open-addressing table of ids hashed on the row in place as the index.
/// Each table entry carries 32 bits of its row's hash, so a probe reads a
/// row only on a likely match.
class RowSet {
 public:
  explicit RowSet(std::size_t dim) : dim_(dim), table_(64) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] const std::int64_t* row(std::size_t id) const { return rows_.data() + id * dim_; }

  [[nodiscard]] std::optional<std::size_t> find(const std::int64_t* p) const {
    const Entry& e = table_[probe(p, hash(p))];
    if (e.id == kEmpty) return std::nullopt;
    return e.id;
  }

  /// Appends p unless it is present; returns whether it did.
  bool insert(const std::int64_t* p) {
    if (2 * (count_ + 1) > table_.size()) grow();
    const std::uint64_t h = hash(p);
    Entry& e = table_[probe(p, h)];
    if (e.id != kEmpty) return false;
    if (count_ >= kEmpty)
      throw Error(ErrorKind::Config, "Grouping: more than 2^32 - 1 lattice nodes");
    e = {static_cast<std::uint32_t>(count_++), static_cast<std::uint32_t>(h >> 32)};
    rows_.insert(rows_.end(), p, p + dim_);
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    std::uint32_t id = kEmpty;
    std::uint32_t tag = 0;  ///< high half of the row's hash
  };

  [[nodiscard]] std::uint64_t hash(const std::int64_t* p) const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < dim_; ++i)
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(p[i]);
    return IntVecHash::mix(h);
  }
  /// The table slot holding row p (hash h), or the empty slot where it
  /// belongs.
  [[nodiscard]] std::size_t probe(const std::int64_t* p, std::uint64_t h) const {
    const std::size_t mask = table_.size() - 1;
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t at = h & mask;; at = (at + 1) & mask) {
      const Entry& e = table_[at];
      if (e.id == kEmpty || (e.tag == tag && std::equal(p, p + dim_, row(e.id)))) return at;
    }
  }
  void grow() {
    std::vector<Entry> old(2 * table_.size());
    old.swap(table_);
    for (const Entry& e : old)
      if (e.id != kEmpty) table_[probe(row(e.id), hash(row(e.id)))] = e;
  }

  std::size_t dim_;
  std::size_t count_ = 0;
  std::vector<std::int64_t> rows_;
  std::vector<Entry> table_;
};

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
  const Box tight = bounding_box(ps.points());
  const Box box = widened(tight, all_steps, r);

  const std::size_t dim = ps.dimension();
  const std::size_t lattice_dim = 1 + g.choice_.aux.size();
  // The walk's lattice nodes, by id in discovery order: `nodes` holds their
  // bases (and is the visited set), `lattices` their lattice coordinates.
  // Breadth-first search dequeues nodes in the order it discovers them, so
  // the node ids are also the BFS queue.  `points` indexes V^p the same way
  // for the slot lookups, ids equal to point ids.
  RowSet nodes(dim);
  std::vector<std::int64_t> lattices;
  std::vector<std::size_t> parent_move;  // 2·dir + (sign < 0) that reached it
  RowSet points(dim);
  for (const IntVec& p : ps.points()) points.insert(p.data());
  std::size_t ungrouped = npts;
  std::size_t explicit_cursor = 0;
  std::size_t lex_cursor = 0;  // no point before it is ungrouped
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
    while (lex_cursor < npts && g.point_group_[lex_cursor] != SIZE_MAX) ++lex_cursor;
    if (lex_cursor < npts) return lex_cursor;
    return std::nullopt;
  };
  auto visit = [&](const IntVec& base, const IntVec& lattice, std::size_t move) {
    if (!nodes.insert(base.data())) return false;
    lattices.insert(lattices.end(), lattice.begin(), lattice.end());
    parent_move.push_back(move);
    return true;
  };
  constexpr std::size_t kSeed = SIZE_MAX;

  // Scratch rows: the node buffers may grow while a node is expanded.
  IntVec base(dim), lattice(lattice_dim), slot(dim), nb(dim), nl(lattice_dim);
  std::vector<std::optional<std::size_t>> slots(static_cast<std::size_t>(r));
  while (ungrouped > 0) {
    std::optional<std::size_t> seed = next_seed();
    if (!seed) break;
    // An ungrouped point was never a visited base: slot 0 would hold it.
    if (!visit(ps.points()[*seed], IntVec(lattice_dim, 0), kSeed))
      throw std::logic_error("Grouping: region growing revisited a seed");

    for (std::size_t cur = nodes.size() - 1; cur < nodes.size(); ++cur) {
      std::copy_n(nodes.row(cur), dim, base.begin());
      std::copy_n(lattices.begin() + static_cast<std::ptrdiff_t>(cur * lattice_dim), lattice_dim,
                  lattice.begin());

      // Claim the ungrouped points of the group at this base: slot k =
      // base + k*d_l^p.
      std::fill(slots.begin(), slots.end(), std::nullopt);
      std::size_t populated = 0;
      slot = base;
      for (std::int64_t k = 0; k < r; ++k) {
        std::optional<std::size_t> id =
            tight.contains(slot) ? points.find(slot.data()) : std::nullopt;
        if (id && g.point_group_[*id] == SIZE_MAX) {
          slots[static_cast<std::size_t>(k)] = *id;
          ++populated;
        }
        if (k + 1 < r)
          for (std::size_t i = 0; i < dim; ++i)
            slot[i] = detail::checked_add(slot[i], slot_step[i]);
      }
      if (populated > 0) {
        std::size_t gid = g.groups_.size();
        for (const std::optional<std::size_t>& s : slots)
          if (s) g.point_group_[*s] = gid;
        ungrouped -= populated;
        g.groups_.push_back(Group{base, slots, lattice, component});
      }

      // Expand to forward/backward neighbors along every lattice direction;
      // the move back to the parent would only find it visited (a seed has
      // no parent, and kSeed ^ 1 matches no move).
      const std::size_t back = parent_move[cur] ^ 1;
      for (std::size_t dir = 0; dir < lattice_dim; ++dir) {
        const IntVec& step = all_steps[dir];
        for (int sign : {+1, -1}) {
          const std::size_t move = 2 * dir + (sign < 0 ? 1 : 0);
          if (move == back) continue;
          for (std::size_t i = 0; i < dim; ++i)
            nb[i] = sign > 0 ? detail::checked_add(base[i], step[i])
                             : detail::checked_sub(base[i], step[i]);
          if (!box.contains(nb)) continue;
          nl = lattice;
          nl[dir] += sign;
          visit(nb, nl, move);
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
    for (std::size_t k = 0; k < pdeps.size(); ++k) {
      if (is_zero(pdeps[k])) continue;
      std::optional<std::size_t> q = ps_->arc_target(p, k);
      if (!q) continue;
      std::size_t gp = point_group_[p];
      std::size_t gq = point_group_[*q];
      if (gp != gq) dg.add_edge(gp, gq, 1);
    }
  }
  return dg;
}

}  // namespace hypart
