#include "partition/projection.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

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

IntVec ProjectionFrame::project(const IntVec& x) const {
  return sub(hypart::scale(x, scale_), hypart::scale(tf_.pi, tf_.step_of(x)));
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
  // Project every vertex, count line populations and keep the earliest
  // (smallest-step) vertex of each line as its representative; dedup via
  // ordered map so points() comes out lexicographically sorted and
  // deterministic.
  struct LineAccum {
    std::size_t count = 0;
    IntVec rep;
  };
  std::map<IntVec, LineAccum> population;
  for (const IntVec& v : q.vertices()) {
    LineAccum& acc = population[frame_.project(v)];
    if (acc.count == 0 || tf.step_of(v) < tf.step_of(acc.rep)) acc.rep = v;
    ++acc.count;
  }
  for (auto& [pt, acc] : population) add_line(pt, std::move(acc.rep), acc.count);
}

ProjectedStructure::ProjectedStructure(const IterSpace& space, const TimeFunction& tf)
    : frame_(checked_deps(space.dependences(), space.dimension(), tf), tf),
      dim_(space.dimension()) {
  if (space.empty()) throw std::invalid_argument("ProjectedStructure: empty iteration space");
  // One visit per projection line: the entry point is exactly the
  // smallest-step point of the line (the dense representative) and the
  // population comes in closed form.  The ordered map reproduces the dense
  // constructor's lexicographic point order.
  struct LineAccum {
    IntVec rep;
    std::int64_t count = 0;
  };
  std::map<IntVec, LineAccum> lines;
  space.for_each_line(line_direction(), [&](const IntVec& rep, std::int64_t pop) {
    lines.emplace(frame_.project(rep), LineAccum{rep, pop});
  });
  for (auto& [pt, acc] : lines)
    add_line(pt, std::move(acc.rep), static_cast<std::size_t>(acc.count));
}

void ProjectedStructure::add_line(const IntVec& point, IntVec rep, std::size_t pop) {
  index_.emplace(point, points_.size());
  points_.push_back(point);
  line_pop_.push_back(pop);
  line_reps_.push_back(std::move(rep));
}

RatVec ProjectedStructure::point_rational(std::size_t id) const {
  const IntVec& p = points_.at(id);
  RatVec r(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) r[i] = Rational(p[i], scale());
  return r;
}

std::optional<std::size_t> ProjectedStructure::find_point(const IntVec& scaled) const {
  auto it = index_.find(scaled);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::size_t ProjectedStructure::point_of(const IntVec& j) const {
  std::optional<std::size_t> id = find_point(frame_.project(j));
  if (!id) throw std::out_of_range("ProjectedStructure::point_of: point projects outside V^p");
  return *id;
}

Digraph ProjectedStructure::to_digraph() const {
  Digraph g(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    for (const IntVec& dp : projected_deps_scaled()) {
      if (is_zero(dp)) continue;
      std::optional<std::size_t> j = find_point(add(points_[i], dp));
      if (j) g.add_edge(i, *j);
    }
  }
  return g;
}

}  // namespace hypart
