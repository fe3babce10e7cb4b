#include "schedule/hyperplane.hpp"

#include <algorithm>
#include <stdexcept>

namespace hypart {

bool is_valid_time_function(const TimeFunction& tf, const std::vector<IntVec>& dependences) {
  if (tf.pi.empty()) return false;
  if (is_zero(tf.pi)) return false;
  return std::all_of(dependences.begin(), dependences.end(),
                     [&](const IntVec& d) { return dot(tf.pi, d) > 0; });
}

ScheduleProfile profile_schedule(const TimeFunction& tf, const PointRows& points) {
  ScheduleProfile p;
  if (points.empty()) return p;
  for (PointRef x : points) ++p.points_per_step[tf.step_of(x)];
  p.first_step = p.points_per_step.begin()->first;
  p.last_step = p.points_per_step.rbegin()->first;
  p.step_count = p.points_per_step.size();
  for (const auto& [step, count] : p.points_per_step)
    p.max_parallelism = std::max(p.max_parallelism, count);
  return p;
}

namespace {

/// Enumerate all integer vectors in the box, skipping zero (odometer walk).
template <typename F>
void for_each_candidate(std::size_t dim, std::int64_t bound, bool nonnegative, F&& f) {
  const std::int64_t lo = nonnegative ? 0 : -bound;
  IntVec v(dim, lo);
  while (true) {
    if (!is_zero(v)) f(v);
    std::size_t k = dim;
    while (k > 0 && v[k - 1] == bound) {
      v[k - 1] = lo;
      --k;
    }
    if (k == 0) return;
    ++v[k - 1];
  }
}

/// The first and last vertex of every run of vertices that share their
/// first n - 1 coordinates, walked in lexicographic rank order (a run of
/// one vertex contributes it once).  Along a run only x_n changes, and it
/// increases, so Π·x is monotone there: every extreme of Π·x over V, and
/// every int64 overflow of it, occurs at one of these rows.
PointRows line_ends(const ComputationStructure& q) {
  const std::size_t n = q.dimension();
  const std::size_t prefix = n > 0 ? n - 1 : 0;
  const std::size_t nv = q.vertices().size();
  PointRows ends(n);
  auto same_line = [&](PointRef a, PointRef b) {
    return std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(prefix), b.begin());
  };
  for (std::size_t rank = 0; rank < nv;) {
    const PointRef first = q.row(q.id_at(rank));
    std::size_t last = rank;
    while (last + 1 < nv && same_line(first, q.row(q.id_at(last + 1)))) ++last;
    ends.push_back(first);
    if (last != rank) ends.push_back(q.row(q.id_at(last)));
    rank = last + 1;
  }
  return ends;
}

}  // namespace

std::optional<TimeFunction> search_time_function(const ComputationStructure& q,
                                                 const TimeFunctionSearchOptions& opts) {
  std::optional<TimeFunction> best;
  std::int64_t best_span = 0;
  std::int64_t best_norm = 0;
  const PointRows ends = line_ends(q);

  for_each_candidate(q.dimension(), opts.max_coefficient, opts.nonnegative_only,
                     [&](const IntVec& cand) {
    TimeFunction tf{cand};
    if (!is_valid_time_function(tf, q.dependences())) return;
    // Span can be computed from extremes without a full profile.
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (PointRef x : ends) {
      std::int64_t s = tf.step_of(x);
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    std::int64_t span = hi - lo + 1;
    std::int64_t norm = tf.norm2();
    if (!best || span < best_span || (span == best_span && norm < best_norm) ||
        (span == best_span && norm == best_norm && cand < best->pi)) {
      best = tf;
      best_span = span;
      best_norm = norm;
    }
  });
  return best;
}

std::optional<TimeFunction> search_time_function(const IterSpace& space,
                                                 const TimeFunctionSearchOptions& opts) {
  if (space.empty()) return std::nullopt;
  std::optional<TimeFunction> best;
  std::int64_t best_span = 0;
  std::int64_t best_norm = 0;

  for_each_candidate(space.dimension(), opts.max_coefficient, opts.nonnegative_only,
                     [&](const IntVec& cand) {
    TimeFunction tf{cand};
    if (!is_valid_time_function(tf, space.dependences())) return;
    const auto [lo, hi] = space.step_range(cand);
    const std::int64_t span = detail::checked_add(detail::checked_sub(hi, lo), 1);
    std::int64_t norm = tf.norm2();
    if (!best || span < best_span || (span == best_span && norm < best_norm) ||
        (span == best_span && norm == best_norm && cand < best->pi)) {
      best = tf;
      best_span = span;
      best_norm = norm;
    }
  });
  return best;
}

TimeFunction uniform_time_function(const std::vector<IntVec>& dependences, std::size_t dim) {
  TimeFunction tf{IntVec(dim, 1)};
  if (!is_valid_time_function(tf, dependences))
    throw std::invalid_argument(
        "uniform_time_function: Pi = (1,...,1) is not valid for these dependences");
  return tf;
}

}  // namespace hypart
