#include "loop/index_set.hpp"

#include <stdexcept>

namespace hypart {

IndexSet::IndexSet(const LoopNest& nest) : dims_(nest.dims()) {}

std::int64_t IndexSet::lower(std::size_t j, const IntVec& outer) const {
  return dims_[j].lower.evaluate_lower(outer);
}

std::int64_t IndexSet::upper(std::size_t j, const IntVec& outer) const {
  return dims_[j].upper.evaluate_upper(outer);
}

namespace {

/// Iterative lexicographic walk over J^n (no recursion: nests can be deep
/// and hot); visit(point) sees each point once, point reused between calls.
template <class Visit>
void walk(const std::vector<LoopDim>& dims, Visit&& visit) {
  const std::size_t n = dims.size();
  IntVec point(n, 0);
  std::size_t level = 0;
  std::vector<std::int64_t> hi(n, 0);
  while (true) {
    if (level == n) {
      visit(point);
      // Backtrack to the deepest level that can still advance.
      while (level > 0) {
        --level;
        if (point[level] < hi[level]) {
          ++point[level];
          ++level;
          break;
        }
      }
      if (level == 0) return;  // exhausted
      continue;
    }
    std::int64_t lo = dims[level].lower.evaluate_lower(point);
    std::int64_t up = dims[level].upper.evaluate_upper(point);
    if (lo > up) {
      // Empty subrange: backtrack.
      bool moved = false;
      while (level > 0) {
        --level;
        if (point[level] < hi[level]) {
          ++point[level];
          ++level;
          moved = true;
          break;
        }
      }
      if (!moved) return;
      continue;
    }
    point[level] = lo;
    hi[level] = up;
    ++level;
  }
}

}  // namespace

void IndexSet::for_each(const std::function<void(const IntVec&)>& visit) const {
  walk(dims_, visit);
}

PointRows IndexSet::points() const {
  PointRows pts(dims_.size());
  // Reserve the exact point count when the bounds are rectangular (size()
  // is a closed-form product there; for triangular nests it would walk the
  // set once just to count, doubling the work, so skip it).
  bool rect = true;
  for (const LoopDim& d : dims_)
    if (!d.lower.is_constant() || !d.upper.is_constant()) {
      rect = false;
      break;
    }
  if (rect) pts.reserve(static_cast<std::size_t>(size()));
  walk(dims_, [&](const IntVec& p) { pts.push_back(p); });
  return pts;
}

std::uint64_t IndexSet::size() const {
  std::uint64_t count = 0;
  // Fast path: rectangular product.
  bool rect = true;
  for (const LoopDim& d : dims_)
    if (!d.lower.is_constant() || !d.upper.is_constant()) {
      rect = false;
      break;
    }
  if (rect) {
    count = 1;
    for (const LoopDim& d : dims_) {
      std::int64_t lo = d.lower.constant_lower();
      std::int64_t up = d.upper.constant_upper();
      if (up < lo) return 0;
      count *= static_cast<std::uint64_t>(up - lo + 1);
    }
    return count;
  }
  walk(dims_, [&](const IntVec&) { ++count; });
  return count;
}

bool IndexSet::contains(const IntVec& point) const {
  if (point.size() != dims_.size()) return false;
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    std::int64_t lo = dims_[j].lower.evaluate_lower(point);
    std::int64_t up = dims_[j].upper.evaluate_upper(point);
    if (point[j] < lo || point[j] > up) return false;
  }
  return true;
}

std::vector<std::pair<std::int64_t, std::int64_t>> IndexSet::rectangular_bounds() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> b;
  b.reserve(dims_.size());
  for (const LoopDim& d : dims_) {
    if (!d.lower.is_constant() || !d.upper.is_constant())
      throw std::logic_error("IndexSet::rectangular_bounds: nest is not rectangular");
    b.emplace_back(d.lower.constant_lower(), d.upper.constant_upper());
  }
  return b;
}

}  // namespace hypart
