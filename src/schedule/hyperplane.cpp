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

ScheduleProfile profile_schedule(const TimeFunction& tf, const std::vector<IntVec>& points) {
  ScheduleProfile p;
  if (points.empty()) return p;
  for (const IntVec& x : points) ++p.points_per_step[tf.step_of(x)];
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

}  // namespace

std::optional<TimeFunction> search_time_function(const ComputationStructure& q,
                                                 const TimeFunctionSearchOptions& opts) {
  std::optional<TimeFunction> best;
  std::int64_t best_span = 0;
  std::int64_t best_norm = 0;

  for_each_candidate(q.dimension(), opts.max_coefficient, opts.nonnegative_only,
                     [&](const IntVec& cand) {
    TimeFunction tf{cand};
    if (!is_valid_time_function(tf, q.dependences())) return;
    // Span can be computed from extremes without a full profile.
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (const IntVec& x : q.vertices()) {
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
    const std::int64_t span = detail::checked_add(
        detail::checked_sub(space.max_step(cand), space.min_step(cand)), 1);
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
