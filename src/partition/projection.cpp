#include "partition/projection.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace hypart {

ProjectionFrame::ProjectionFrame(std::vector<IntVec> deps, const TimeFunction& tf)
    : tf_(tf), scale_(tf.norm2()), deps_(std::move(deps)) {
  const std::int64_t g = content(tf.pi);
  line_dir_.resize(tf.pi.size());
  for (std::size_t i = 0; i < line_dir_.size(); ++i) line_dir_[i] = tf.pi[i] / g;
  stride_ = scale_ / g;
  proj_deps_.reserve(deps_.size());
  for (const IntVec& d : deps_) proj_deps_.push_back(project(d));
}

IntVec ProjectionFrame::project(PointRef x) const {
  IntVec out(x.size());
  project_into(x, out.data());
  return out;
}

std::int64_t ProjectionFrame::project_into(PointRef x, std::int64_t* out) const {
  const std::int64_t step = tf_.step_of(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = detail::checked_sub(detail::checked_mul(x[i], scale_),
                                 detail::checked_mul(tf_.pi[i], step));
  return step;
}

RatVec ProjectionFrame::projected_dep_rational(std::size_t k) const {
  const IntVec& d = proj_deps_.at(k);
  RatVec r(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) r[i] = Rational(d[i], scale_);
  return r;
}

std::int64_t ProjectionFrame::replication_factor(std::size_t k) const {
  // r = s / gcd(s, content(scaled dep)): the smallest r with r*d^p integral.
  return scale_ / gcd64(scale_, content(proj_deps_.at(k)));
}

std::size_t ProjectionFrame::projected_rank() const {
  std::vector<RatVec> cols;
  cols.reserve(proj_deps_.size());
  for (std::size_t k = 0; k < proj_deps_.size(); ++k) cols.push_back(projected_dep_rational(k));
  return rank_of(cols);
}

namespace {

/// The m keys in `keys` (rows of n coordinates) in (key, row) order: the
/// row ids, and beside them codes where equal codes mark equal keys.
struct SortedKeys {
  std::vector<std::uint64_t> codes;
  std::vector<std::uint32_t> rows;
};

/// Sorts the keys; the first `lead` coordinates determine a key.  When
/// their bounding box has fewer than 2^64 cells, each key packs into a
/// mixed-radix code that orders like the key and an LSD radix sort orders
/// (code, row id) in O(m) per 11-bit digit; otherwise rows are compared in
/// place and the code is the key's rank.  Codes and 32-bit row ids sit in
/// separate arrays (12 bytes a key, and as much again for the radix
/// scratch), so m is limited to 2^32 - 1 keys like the point ids.
SortedKeys sort_keys(const std::vector<std::int64_t>& keys, std::size_t m, std::size_t n,
                     std::size_t lead) {
  if (m >= UINT32_MAX)
    throw Error(ErrorKind::Config, "ProjectedStructure: " + std::to_string(m) +
                                       " keys exceed the 32-bit point-id limit");
  SortedKeys sorted{std::vector<std::uint64_t>(m), std::vector<std::uint32_t>(m)};
  if (m == 0) return sorted;
  std::iota(sorted.rows.begin(), sorted.rows.end(), std::uint32_t{0});
  IntVec lo(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(lead)), hi = lo;
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < lead; ++c) {
      lo[c] = std::min(lo[c], keys[r * n + c]);
      hi[c] = std::max(hi[c], keys[r * n + c]);
    }
  std::vector<std::uint64_t> span(lead);
  std::uint64_t cells = 1;
  bool packs = true;
  for (std::size_t c = 0; c < lead && packs; ++c) {
    span[c] = static_cast<std::uint64_t>(hi[c]) - static_cast<std::uint64_t>(lo[c]) + 1;
    packs = span[c] != 0 && !__builtin_mul_overflow(cells, span[c], &cells);
  }
  if (!packs) {
    auto row = [&](std::size_t r) { return keys.data() + r * n; };
    std::stable_sort(sorted.rows.begin(), sorted.rows.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(row(a), row(a) + n, row(b), row(b) + n);
    });
    for (std::size_t i = 1; i < m; ++i) {
      const std::int64_t* prev = row(sorted.rows[i - 1]);
      const bool same = std::equal(prev, prev + n, row(sorted.rows[i]));
      sorted.codes[i] = sorted.codes[i - 1] + (same ? 0 : 1);
    }
    return sorted;
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::uint64_t code = 0;
    for (std::size_t c = 0; c < lead; ++c)
      code = code * span[c] +
             (static_cast<std::uint64_t>(keys[r * n + c]) - static_cast<std::uint64_t>(lo[c]));
    sorted.codes[r] = code;
  }
  // Stable passes from the least significant digit keep equal codes in
  // row order.
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  const unsigned bits = cells > 1 ? 64 - static_cast<unsigned>(__builtin_clzll(cells - 1)) : 0;
  SortedKeys scratch;
  if (bits > 0) scratch = {std::vector<std::uint64_t>(m), std::vector<std::uint32_t>(m)};
  std::vector<std::size_t> start(kDigitMask + 2);
  for (unsigned shift = 0; shift < bits; shift += kDigitBits) {
    std::fill(start.begin(), start.end(), 0);
    for (std::uint64_t code : sorted.codes) ++start[((code >> shift) & kDigitMask) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t at = start[(sorted.codes[i] >> shift) & kDigitMask]++;
      scratch.codes[at] = sorted.codes[i];
      scratch.rows[at] = sorted.rows[i];
    }
    std::swap(sorted, scratch);
  }
  return sorted;
}

/// How many leading coordinates determine a projected point: n - 1 when
/// Π's last entry is nonzero (Π·x^p = 0 fixes the last one), else n.
std::size_t key_lead(const IntVec& pi) {
  return !pi.empty() && pi.back() != 0 ? pi.size() - 1 : pi.size();
}

/// The checks both ProjectedStructure constructors run before the frame.
std::vector<IntVec> checked_deps(const std::vector<IntVec>& deps, std::size_t dim,
                                 const TimeFunction& tf) {
  if (tf.dimension() != dim)
    throw std::invalid_argument("ProjectedStructure: time function dimension mismatch");
  if (!is_valid_time_function(tf, deps))
    throw std::invalid_argument("ProjectedStructure: invalid time function for dependences");
  return deps;
}

}  // namespace

ProjectedStructure::ProjectedStructure(const ComputationStructure& q, const TimeFunction& tf)
    : frame_(checked_deps(q.dependences(), q.dimension(), tf), tf), dim_(q.dimension()) {
  // Project every vertex once into one flat key buffer and sort the vertex
  // ids by key: each projection line becomes one run of equal keys, in
  // lexicographic point order.  The line's representative is its earliest
  // (smallest-step) vertex; two vertices of one line never share a step.
  const PointRows& verts = q.vertices();
  const std::size_t n = dim_;
  std::vector<std::int64_t> keys(verts.size() * n);
  std::vector<std::int64_t> steps(verts.size());
  for (std::size_t v = 0; v < verts.size(); ++v)
    steps[v] = frame_.project_into(verts[v], &keys[v * n]);
  const SortedKeys sorted = sort_keys(keys, verts.size(), n, key_lead(tf.pi));
  const std::size_t m = sorted.rows.size();
  vertex_point_.resize(verts.size());
  for (std::size_t i = 0; i < m;) {
    const auto pid = static_cast<std::uint32_t>(points_.size());
    std::size_t rep = sorted.rows[i];
    std::size_t j = i;
    for (; j < m && sorted.codes[j] == sorted.codes[i]; ++j) {
      const std::size_t v = sorted.rows[j];
      vertex_point_[v] = pid;
      if (steps[v] < steps[rep]) rep = v;
    }
    add_line(&keys[rep * n], IntVec(verts[rep].begin(), verts[rep].end()), j - i);
    i = j;
  }
  build_arc_table();
}

ProjectedStructure::ProjectedStructure(const IterSpace& space, const TimeFunction& tf)
    : frame_(checked_deps(space.dependences(), space.dimension(), tf), tf),
      dim_(space.dimension()) {
  if (space.empty()) throw std::invalid_argument("ProjectedStructure: empty iteration space");
  // One visit per projection line: the entry point is exactly the
  // smallest-step point of the line (the dense representative) and the
  // population is its closed-form run length (line_range's k starts at 0
  // on an entry).  Sorting the flat keys reproduces the dense
  // constructor's lexicographic point order; a key seen twice keeps its
  // first visit.
  const std::size_t n = dim_;
  const IntVec& u = line_direction();
  std::vector<std::int64_t> keys;
  std::vector<std::int64_t> reps;
  std::vector<std::int64_t> pops;
  space.for_each_line(u, [&](const IntVec& rep) {
    keys.resize(keys.size() + n);
    frame_.project_into(rep, keys.data() + keys.size() - n);
    reps.insert(reps.end(), rep.begin(), rep.end());
    pops.push_back(space.line_range(rep, u)->second + 1);
  });
  const SortedKeys sorted = sort_keys(keys, pops.size(), n, key_lead(tf.pi));
  for (std::size_t i = 0; i < sorted.rows.size(); ++i) {
    if (i > 0 && sorted.codes[i] == sorted.codes[i - 1]) continue;
    const std::size_t l = sorted.rows[i];
    add_line(&keys[l * n],
             IntVec(reps.begin() + static_cast<std::ptrdiff_t>(l * n),
                    reps.begin() + static_cast<std::ptrdiff_t>((l + 1) * n)),
             static_cast<std::size_t>(pops[l]));
  }
  build_arc_table();
}

void ProjectedStructure::add_line(const std::int64_t* point, IntVec rep, std::size_t pop) {
  points_.emplace_back(point, point + dim_);
  line_pop_.push_back(pop);
  line_reps_.push_back(std::move(rep));
}

void ProjectedStructure::build_arc_table() {
  const std::vector<IntVec>& pdeps = projected_deps_scaled();
  const std::size_t np = points_.size();
  const std::size_t nd = pdeps.size();
  if (np > kNoArc)
    throw Error(ErrorKind::Config, "ProjectedStructure: " + std::to_string(np) +
                                       " projected points exceed the 32-bit point-id limit");
  arc_target_.assign(np * nd, kNoArc);
  auto at = [&](std::size_t id) -> const IntVec& { return points_[id]; };
  for (std::size_t k = 0; k < nd; ++k)
    for_each_shift_match(np, at, pdeps[k], [&](std::size_t src, std::size_t dst) {
      arc_target_[src * nd + k] = static_cast<std::uint32_t>(dst);
    });
}

RatVec ProjectedStructure::point_rational(std::size_t id) const {
  const IntVec& p = points_.at(id);
  RatVec r(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) r[i] = Rational(p[i], scale());
  return r;
}

std::optional<std::size_t> ProjectedStructure::find_point(const IntVec& scaled) const {
  auto it = std::lower_bound(points_.begin(), points_.end(), scaled);
  if (it == points_.end() || *it != scaled) return std::nullopt;
  return static_cast<std::size_t>(it - points_.begin());
}

std::size_t ProjectedStructure::point_of(PointRef j) const {
  std::optional<std::size_t> id = find_point(frame_.project(j));
  if (!id) throw std::out_of_range("ProjectedStructure::point_of: point projects outside V^p");
  return *id;
}

Digraph ProjectedStructure::to_digraph() const {
  const std::vector<IntVec>& pdeps = projected_deps_scaled();
  Digraph g(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    for (std::size_t k = 0; k < pdeps.size(); ++k) {
      if (is_zero(pdeps[k])) continue;
      std::optional<std::size_t> j = arc_target(i, k);
      if (j) g.add_edge(i, *j);
    }
  }
  return g;
}

}  // namespace hypart
