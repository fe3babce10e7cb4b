#include "partition/grouping.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

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
/// bounds the widened-box walk.  ArithmeticError when a margin or a bound
/// leaves int64.
Box widened(Box b, const std::vector<IntVec>& steps, std::int64_t r) {
  for (std::size_t i = 0; i < b.lo.size(); ++i) {
    std::int64_t margin = 1;
    for (const IntVec& s : steps) {
      const std::int64_t a = s[i] < 0 ? detail::checked_neg(s[i]) : s[i];
      margin = std::max(margin, detail::checked_mul(detail::checked_add(r, 1), a));
    }
    b.lo[i] = detail::checked_sub(b.lo[i], margin);
    b.hi[i] = detail::checked_add(b.hi[i], margin);
  }
  return b;
}

/// Whether f() runs without leaving int64.
template <class F>
bool overflow_free(F&& f) {
  try {
    f();
    return true;
  } catch (const ArithmeticError&) {
    return false;
  }
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

  /// Appends p unless it is present; returns p's id and whether it did.
  std::pair<std::size_t, bool> insert(const std::int64_t* p) {
    if (2 * (count_ + 1) > table_.size()) grow();
    const std::uint64_t h = hash(p);
    Entry& e = table_[probe(p, h)];
    if (e.id != kEmpty) return {e.id, false};
    if (count_ >= kEmpty)
      throw Error(ErrorKind::Config, "Grouping: more than 2^32 - 1 lattice nodes");
    e = {static_cast<std::uint32_t>(count_++), static_cast<std::uint32_t>(h >> 32)};
    rows_.insert(rows_.end(), p, p + dim_);
    return {e.id, true};
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

/// Solves points for their coset of Λ = Z·d_l^p + Σ_j Z·Ψ_j (the unit slot
/// step and the auxiliary vectors) and their Λ coordinates x:
/// p = ρ + x_0·d_l^p + Σ_j x_j·Ψ_j for the coset's canonical residue ρ, so
/// two points q, p of one coset differ by Σ_k (x_p − x_q)_k·basis_k.  Uses
/// the column Hermite form H = A·U of A = [d_l^p Ψ] (H's columns generate Λ
/// in echelon form, pivots positive): reducing p by H's columns in pivot
/// order leaves the residue ρ, each pivot entry in [0, pivot), with
/// p − ρ = H·c = A·(U·c), so x = U·c.  Throws ArithmeticError when a value
/// leaves int64.
class LatticeSolver {
 public:
  explicit LatticeSolver(const std::vector<IntVec>& basis)
      : hnf_(hermite_normal_form(IntMat::from_cols(basis))), beta_(basis.size()),
        pivot_row_(beta_), c_(beta_) {
    for (std::size_t j = 0, row = 0; j < beta_; ++j) {
      while (hnf_.h.at(row, j) == 0) ++row;
      pivot_row_[j] = row;
    }
  }

  /// Writes p's residue to `rho` and its β Λ coordinates to `x`.
  void solve(const IntVec& p, IntVec& rho, std::int64_t* x) {
    rho = p;
    for (std::size_t j = 0; j < beta_; ++j) {
      c_[j] = floor_div(rho[pivot_row_[j]], hnf_.h.at(pivot_row_[j], j));
      for (std::size_t i = pivot_row_[j]; i < rho.size(); ++i)
        rho[i] = detail::checked_sub(rho[i], detail::checked_mul(c_[j], hnf_.h.at(i, j)));
    }
    for (std::size_t k = 0; k < beta_; ++k) {
      x[k] = 0;
      for (std::size_t j = 0; j < beta_; ++j)
        x[k] = detail::checked_add(x[k], detail::checked_mul(hnf_.u.at(k, j), c_[j]));
    }
  }

 private:
  HermiteResult hnf_;
  std::size_t beta_;
  std::vector<std::size_t> pivot_row_;
  IntVec c_;  ///< scratch: x in H's columns
};

/// V^p by coset of Λ, each point with its Λ coordinates (LatticeSolver),
/// built in one pass.
class CosetIndex {
 public:
  CosetIndex(const std::vector<IntVec>& pts, LatticeSolver& solver, std::size_t beta)
      : beta_(beta), coset_(pts.size()), coords_(pts.size() * beta) {
    RowSet residues(pts.front().size());
    IntVec rho;
    for (std::size_t p = 0; p < pts.size(); ++p) {
      solver.solve(pts[p], rho, &coords_[p * beta_]);
      coset_[p] = static_cast<std::uint32_t>(residues.insert(rho.data()).first);
    }
    // Bucket the point ids by coset (a counting sort keeps them ascending).
    start_.assign(residues.size() + 1, 0);
    for (std::uint32_t k : coset_) ++start_[k + 1];
    for (std::size_t k = 0; k < residues.size(); ++k) start_[k + 1] += start_[k];
    members_.resize(pts.size());
    std::vector<std::size_t> at(start_.begin(), start_.end() - 1);
    for (std::size_t p = 0; p < pts.size(); ++p)
      members_[at[coset_[p]]++] = static_cast<std::uint32_t>(p);
  }

  [[nodiscard]] std::size_t coset_count() const { return start_.size() - 1; }
  [[nodiscard]] std::size_t coset_of(std::size_t p) const { return coset_[p]; }
  /// Coset k's point ids, ascending.
  [[nodiscard]] std::span<const std::uint32_t> members(std::size_t k) const {
    return {members_.data() + start_[k], start_[k + 1] - start_[k]};
  }
  [[nodiscard]] const std::int64_t* coords(std::size_t p) const {
    return coords_.data() + p * beta_;
  }

 private:
  std::size_t beta_;
  std::vector<std::uint32_t> coset_;   ///< point id -> coset id
  std::vector<std::int64_t> coords_;   ///< point id -> β Λ coordinates
  std::vector<std::size_t> start_;     ///< coset k's members: [start_[k], start_[k+1])
  std::vector<std::uint32_t> members_;
};

/// The lattice geometry both regions share: the slot step d_l^p and the
/// lattice directions (r·d_l^p, then Ψ), in scaled coordinates.
struct LatticeSteps {
  const IntVec& slot_step;
  const std::vector<IntVec>& dirs;
  std::int64_t r;
};

/// The lattice node of a point with Λ coordinates x when the seed's are s:
/// (⌊(x_0 − s_0)/r⌋, x_j − s_j).
void lattice_node(const std::int64_t* x, const std::int64_t* s, const LatticeSteps& steps,
                  std::int64_t* node) {
  node[0] = floor_div(detail::checked_sub(x[0], s[0]), steps.r);
  for (std::size_t j = 1; j < steps.dirs.size(); ++j) node[j] = detail::checked_sub(x[j], s[j]);
}

/// Whether the image of the lattice box [lo, hi] around `seed_point` lies
/// in `box`.  The image is the parallelotope spanned by its 2^β corners;
/// its extent along each coordinate comes from the per-direction minimum
/// and maximum, so the test costs O(β·dim).  An overflow counts as outside.
bool image_inside(const IntVec& seed_point, const IntVec& lo, const IntVec& hi,
                  const LatticeSteps& steps, const Box& box) {
  bool in = true;
  return overflow_free([&] {
    for (std::size_t i = 0; i < seed_point.size() && in; ++i) {
      std::int64_t mn = seed_point[i], mx = seed_point[i];
      for (std::size_t j = 0; j < lo.size(); ++j) {
        const std::int64_t a = detail::checked_mul(lo[j], steps.dirs[j][i]);
        const std::int64_t b = detail::checked_mul(hi[j], steps.dirs[j][i]);
        mn = detail::checked_add(mn, std::min(a, b));
        mx = detail::checked_add(mx, std::max(a, b));
      }
      in = box.lo[i] <= mn && mx <= box.hi[i];
    }
  }) && in;
}

/// Whether the lattice box Q of `seed`'s coset may lie in `box`, judged
/// from the points of V^p at its per-coordinate extremes: those in the
/// seed's coset have nodes in Q, so when the image of their lattice box
/// leaves `box`, Q's does too.  O(points·dim) compares and 2·dim solves.
bool extremes_may_fit(const std::vector<IntVec>& pts, std::size_t seed, LatticeSolver& solver,
                      const LatticeSteps& steps, const Box& box) {
  const std::size_t dim = pts.front().size();
  std::vector<std::size_t> extremes(2 * dim, 0);  // argmin, argmax per coordinate
  for (std::size_t p = 0; p < pts.size(); ++p)
    for (std::size_t i = 0; i < dim; ++i) {
      if (pts[p][i] < pts[extremes[2 * i]][i]) extremes[2 * i] = p;
      if (pts[p][i] > pts[extremes[2 * i + 1]][i]) extremes[2 * i + 1] = p;
    }
  const std::size_t beta = steps.dirs.size();
  IntVec seed_rho, rho, seed_x(beta), x(beta), node(beta), lo(beta, 0), hi(beta, 0);
  solver.solve(pts[seed], seed_rho, seed_x.data());
  for (std::size_t p : extremes) {
    solver.solve(pts[p], rho, x.data());
    if (rho != seed_rho) continue;
    lattice_node(x.data(), seed_x.data(), steps, node.data());
    for (std::size_t j = 0; j < beta; ++j) {
      lo[j] = std::min(lo[j], node[j]);
      hi[j] = std::max(hi[j], node[j]);
    }
  }
  return image_inside(pts[seed], lo, hi, steps, box);
}

/// Region growing over W, the widened box of scaled points: every lattice
/// node whose base lies in W exists.  Node bases live in a RowSet shared by
/// all widened walks (a seed that some walk already visited as a base
/// would be a logic error); slots are found by hashing their points.
class WidenedRegion {
 public:
  WidenedRegion(RowSet& nodes, const RowSet& points, const Box& tight, const Box& box,
                const LatticeSteps& steps, const std::vector<std::size_t>& point_group,
                const IntVec& seed)
      : nodes_(nodes), points_(points), tight_(tight), box_(box), steps_(steps),
        point_group_(point_group), first_(nodes.size()), slot_(seed.size()), nb_(seed.size()) {
    // An ungrouped point was never a visited base: slot 0 would hold it.
    if (!nodes_.insert(seed.data()).second)
      throw std::logic_error("Grouping: region growing revisited a seed");
  }

  /// Writes the ungrouped points of node `cur`'s slots (base + k·d_l^p);
  /// returns how many.
  std::size_t claim(std::size_t cur, const IntVec&, std::vector<std::optional<std::size_t>>& slots) {
    std::copy_n(nodes_.row(first_ + cur), slot_.size(), slot_.begin());
    std::size_t populated = 0;
    for (std::int64_t k = 0; k < steps_.r; ++k) {
      std::optional<std::size_t> id =
          tight_.contains(slot_) ? points_.find(slot_.data()) : std::nullopt;
      if (id && point_group_[*id] == SIZE_MAX) {
        slots[static_cast<std::size_t>(k)] = *id;
        ++populated;
      }
      if (k + 1 < steps_.r)
        for (std::size_t i = 0; i < slot_.size(); ++i)
          slot_[i] = detail::checked_add(slot_[i], steps_.slot_step[i]);
    }
    return populated;
  }
  /// Whether node `cur`'s neighbor along ±dir lies in W and is new (it is
  /// marked visited).
  bool enter(std::size_t cur, std::size_t dir, int sign, const IntVec&) {
    const std::int64_t* base = nodes_.row(first_ + cur);
    const IntVec& step = steps_.dirs[dir];
    for (std::size_t i = 0; i < nb_.size(); ++i)
      nb_[i] = sign > 0 ? detail::checked_add(base[i], step[i])
                        : detail::checked_sub(base[i], step[i]);
    return box_.contains(nb_) && nodes_.insert(nb_.data()).second;
  }
  [[nodiscard]] IntVec base(std::size_t cur, const IntVec&) const {
    const std::int64_t* row = nodes_.row(first_ + cur);
    return IntVec(row, row + slot_.size());
  }

 private:
  RowSet& nodes_;
  const RowSet& points_;
  const Box& tight_;
  const Box& box_;
  const LatticeSteps& steps_;
  const std::vector<std::size_t>& point_group_;
  std::size_t first_;  ///< nodes_ id of this walk's seed; later nodes follow in BFS order
  IntVec slot_, nb_;   ///< scratch rows
};

/// Region growing over Q, the lattice box of one coset's points: node
/// (a, b) of a point p with p − seed = t·d_l^p + Σ_j b_j·Ψ_j is
/// (⌊t/r⌋, b), its slot t mod r.  The nodes are the box's cells; each
/// cell's points are listed once (CSR by cell), so a slot lookup reads
/// them instead of hashing a row.
class LatticeBoxRegion {
 public:
  /// Q for the seed's coset, or nullopt unless Q's image lies in `box`
  /// (and Q has at most 2^32 − 1 cells; an overflow counts as outside).
  static std::optional<LatticeBoxRegion> fit(const CosetIndex& cosets, std::size_t seed,
                                             const IntVec& seed_point, const LatticeSteps& steps,
                                             const Box& box) {
    std::optional<LatticeBoxRegion> q;
    if (!overflow_free([&] { q.emplace(cosets, seed, seed_point, steps); }) ||
        q->cells_ >= UINT32_MAX || !image_inside(seed_point, q->lo_, q->hi_, steps, box))
      return std::nullopt;
    q->index_cells();
    return q;
  }
  LatticeBoxRegion(const CosetIndex& cosets, std::size_t seed, const IntVec& seed_point,
                   const LatticeSteps& steps)
      : cosets_(cosets), members_(cosets.members(cosets.coset_of(seed))),
        seed_coords_(cosets.coords(seed)), seed_point_(seed_point), steps_(steps),
        beta_(steps.dirs.size()), member_nodes_(members_.size() * beta_), lo_(beta_, 0),
        hi_(beta_, 0), stride_(beta_) {
    for (std::size_t m = 0; m < members_.size(); ++m) {
      std::int64_t* node = &member_nodes_[m * beta_];
      lattice_node(cosets_.coords(members_[m]), seed_coords_, steps_, node);
      for (std::size_t j = 0; j < beta_; ++j) {
        lo_[j] = std::min(lo_[j], node[j]);
        hi_[j] = std::max(hi_[j], node[j]);
      }
    }
    std::int64_t cells = 1;
    for (std::size_t j = 0; j < beta_; ++j) {
      stride_[j] = static_cast<std::size_t>(cells);
      cells = detail::checked_mul(
          cells, detail::checked_add(detail::checked_sub(hi_[j], lo_[j]), 1));
    }
    cells_ = static_cast<std::size_t>(cells);
  }

  /// Every point of the coset is ungrouped at its first seed, and each
  /// cell is claimed once.
  std::size_t claim(std::size_t, const IntVec& lattice,
                    std::vector<std::optional<std::size_t>>& slots) const {
    const std::size_t cell = cell_of(lattice.data());
    for (std::uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
      const std::size_t p = cell_points_[k];
      const std::int64_t t = cosets_.coords(p)[0] - seed_coords_[0];
      slots[static_cast<std::size_t>(t - steps_.r * floor_div(t, steps_.r))] = p;
    }
    return cell_start_[cell + 1] - cell_start_[cell];
  }
  bool enter(std::size_t, std::size_t dir, int, const IntVec& nl) {
    if (nl[dir] < lo_[dir] || nl[dir] > hi_[dir]) return false;
    const std::size_t cell = cell_of(nl.data());
    if (visited_[cell] != 0) return false;
    visited_[cell] = 1;
    return true;
  }
  [[nodiscard]] IntVec base(std::size_t, const IntVec& lattice) const {
    IntVec b = seed_point_;
    for (std::size_t j = 0; j < beta_; ++j)
      for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = detail::checked_add(b[i], detail::checked_mul(lattice[j], steps_.dirs[j][i]));
    return b;
  }

 private:
  [[nodiscard]] std::size_t cell_of(const std::int64_t* node) const {
    std::size_t cell = 0;
    for (std::size_t j = 0; j < beta_; ++j)
      cell += static_cast<std::size_t>(node[j] - lo_[j]) * stride_[j];
    return cell;
  }
  /// Lists the members by cell (a counting sort) and marks the seed's cell
  /// visited.
  void index_cells() {
    cell_start_.assign(cells_ + 1, 0);
    for (std::size_t m = 0; m < members_.size(); ++m)
      ++cell_start_[cell_of(&member_nodes_[m * beta_]) + 1];
    for (std::size_t c = 0; c < cells_; ++c) cell_start_[c + 1] += cell_start_[c];
    cell_points_.resize(members_.size());
    std::vector<std::uint32_t> at(cell_start_.begin(), cell_start_.end() - 1);
    for (std::size_t m = 0; m < members_.size(); ++m)
      cell_points_[at[cell_of(&member_nodes_[m * beta_])]++] = members_[m];
    visited_.assign(cells_, 0);
    const std::vector<std::int64_t> origin(beta_, 0);
    visited_[cell_of(origin.data())] = 1;
  }

  const CosetIndex& cosets_;
  std::span<const std::uint32_t> members_;
  const std::int64_t* seed_coords_;
  const IntVec& seed_point_;
  const LatticeSteps& steps_;
  std::size_t beta_;
  std::vector<std::int64_t> member_nodes_;  ///< each member's node, β coordinates
  IntVec lo_, hi_;                   ///< Q, per lattice coordinate (holds the seed's 0)
  std::vector<std::size_t> stride_;
  std::size_t cells_ = 0;
  std::vector<std::uint32_t> cell_start_;   ///< CSR over cells into cell_points_
  std::vector<std::uint32_t> cell_points_;  ///< member ids by cell
  std::vector<std::uint8_t> visited_;
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
  // Each component is one breadth-first search from its seed over lattice
  // nodes (base = seed + a·r·d_l^p + Σ_j b_j·Ψ_j), claiming at each node the
  // ungrouped points of its r slots (base + k·d_l^p).  The search runs over
  // one of two regions:
  //
  //  * W, the box of V^p widened by (r+1)·|step| per coordinate: every node
  //    whose base lies in W.  This is the definition, and the fallback.
  //  * Q, the lattice box of the seed's coset: solve every point p of the
  //    coset of Λ = Z·d_l^p + Σ Z·Ψ_j holding the seed for p − seed =
  //    t·d_l^p + Σ b_j·Ψ_j (CosetIndex, once for all of V^p); its node is
  //    (⌊t/r⌋, b), and Q is the smallest lattice box holding those nodes.
  //    It is taken, at the coset's first seed, when Q's image lies in W.
  //    The coset solve is skipped when the first seed's Q is seen to leave
  //    W from V^p's extreme points alone (extremes_may_fit); as the walk
  //    taken never changes the groups, that only spares nests whose boxes
  //    leave W the solve's cost.
  //
  // Both give the same groups, in the same order.  Q is a box that holds
  // the seed's node (the origin) and lies in W.  A move changes one lattice
  // coordinate by ±1, so a Q node's BFS distance in W is at least its L1
  // distance from the origin, and a monotone path inside Q attains it.  A
  // Q node's BFS parent in W is a neighbor one step closer, so it differs in
  // one coordinate, by one, towards the origin's 0 — and is in Q too.  By
  // induction over BFS layers both searches discover Q's nodes from the
  // same parents by the same moves, so they dequeue them in the same
  // relative order.  Only the coset's points fill slots reachable from this
  // seed, every one of them sits at a node of Q, and all are ungrouped at
  // the coset's first seed; so group ids, bases, lattice coordinates, slots
  // and component numbers agree, and the Q walk leaves the coset fully
  // grouped.  (No W walk shares a node with a Q walk: nodes of different
  // cosets differ, and Q is taken only at its coset's first seed, after
  // which the coset has no ungrouped point to seed another walk.)  The
  // walks also agree on errors: Q is taken only when every value the W
  // walk computes — a neighbor or a slot of a node in W, at most one
  // margin past W — fits in int64.
  const IntVec& slot_step = pdeps[l];  // spacing between slots (scaled)
  std::vector<IntVec> dirs{scale(slot_step, r)};  // r·d_l^p, then Ψ
  for (std::size_t k : g.choice_.aux) dirs.push_back(pdeps[k]);
  const LatticeSteps steps{slot_step, dirs, r};
  const Box tight = bounding_box(ps.points());
  const Box box = widened(tight, dirs, r);
  // The coset solve, made at the first seed.  Without it (a W walk that
  // could overflow, an overflow in the solve, or a first seed whose Q
  // leaves W) every component walks W.
  bool solve_cosets = overflow_free([&] { (void)widened(box, dirs, r); });
  std::vector<IntVec> basis{slot_step};
  basis.insert(basis.end(), dirs.begin() + 1, dirs.end());
  std::optional<CosetIndex> cosets;
  std::vector<bool> coset_tried;

  const std::size_t dim = ps.dimension();
  const std::size_t lattice_dim = dirs.size();
  // The W walks' node bases (the visited set across components, by id in
  // discovery order) and V^p hashed for their slot lookups, built at the
  // first W walk.
  RowSet nodes(dim);
  std::optional<RowSet> point_rows;
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

  // The search queue: lattice coordinates and the move that reached each
  // node (2·dir + (sign < 0)), in BFS order.
  constexpr std::size_t kSeed = SIZE_MAX;
  std::vector<std::int64_t> queue;
  std::vector<std::size_t> parent_move;
  IntVec lattice(lattice_dim), nl(lattice_dim);
  std::vector<std::optional<std::size_t>> slots(static_cast<std::size_t>(r));
  // One search over `region`: claim(cur, lattice, slots) writes the
  // ungrouped points of node cur's slots and returns their count,
  // enter(cur, dir, sign, nl) says whether cur's neighbor nl is in the
  // region and new (marking it visited), and base(cur, lattice) is node
  // cur's base.
  auto grow = [&](auto& region) {
    queue.assign(lattice_dim, 0);
    parent_move.assign(1, kSeed);
    for (std::size_t cur = 0; cur < parent_move.size(); ++cur) {
      std::copy_n(queue.begin() + static_cast<std::ptrdiff_t>(cur * lattice_dim), lattice_dim,
                  lattice.begin());
      std::fill(slots.begin(), slots.end(), std::nullopt);
      if (const std::size_t populated = region.claim(cur, lattice, slots); populated > 0) {
        const std::size_t gid = g.groups_.size();
        for (const std::optional<std::size_t>& s : slots)
          if (s) g.point_group_[*s] = gid;
        ungrouped -= populated;
        g.groups_.push_back(Group{region.base(cur, lattice), slots, lattice, component});
      }

      // Expand to forward/backward neighbors along every lattice direction;
      // the move back to the parent would only find it visited (a seed has
      // no parent, and kSeed ^ 1 matches no move).
      const std::size_t back = parent_move[cur] ^ 1;
      for (std::size_t dir = 0; dir < lattice_dim; ++dir)
        for (int sign : {+1, -1}) {
          const std::size_t move = 2 * dir + (sign < 0 ? 1 : 0);
          if (move == back) continue;
          nl = lattice;
          nl[dir] += sign;
          if (!region.enter(cur, dir, sign, nl)) continue;
          queue.insert(queue.end(), nl.begin(), nl.end());
          parent_move.push_back(move);
        }
    }
    g.growth_.nodes_visited += parent_move.size();
  };

  while (ungrouped > 0) {
    std::optional<std::size_t> seed = next_seed();
    if (!seed) break;
    const IntVec& seed_point = ps.points()[*seed];
    if (solve_cosets) {
      solve_cosets = false;
      overflow_free([&] {
        LatticeSolver solver(basis);
        if (extremes_may_fit(ps.points(), *seed, solver, steps, box))
          cosets.emplace(ps.points(), solver, lattice_dim);
      });
      if (cosets) coset_tried.assign(cosets->coset_count(), false);
    }
    const bool first_of_coset = cosets && !coset_tried[cosets->coset_of(*seed)];
    if (first_of_coset) coset_tried[cosets->coset_of(*seed)] = true;
    std::optional<LatticeBoxRegion> q =
        first_of_coset
            ? LatticeBoxRegion::fit(*cosets, *seed, seed_point, steps, box)
            : std::nullopt;
    if (q) {
      grow(*q);
      ++g.growth_.lattice_box_walks;
    } else {
      if (!point_rows) {
        point_rows.emplace(dim);
        for (const IntVec& p : ps.points()) point_rows->insert(p.data());
      }
      WidenedRegion w(nodes, *point_rows, tight, box, steps, g.point_group_, seed_point);
      grow(w);
      ++g.growth_.widened_box_walks;
    }
    ++component;
  }

  if (ungrouped != 0)
    throw std::logic_error("Grouping: region growing failed to cover all projected points");
  return g;
}

const char* GrowthStats::walk() const {
  if (widened_box_walks == 0) return lattice_box_walks == 0 ? "none" : "lattice-box";
  return lattice_box_walks == 0 ? "widened-box" : "mixed";
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
