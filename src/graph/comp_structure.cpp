#include "graph/comp_structure.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/error.hpp"

namespace hypart {

int compare_shifted(PointRef p, PointRef q, PointRef d) {
  for (std::size_t c = 0; c < p.size(); ++c) {
    std::int64_t t = 0;
    if (__builtin_add_overflow(q[c], d[c], &t)) return d[c] > 0 ? -1 : 1;
    if (p[c] != t) return p[c] < t ? -1 : 1;
  }
  return 0;
}

ComputationStructure ComputationStructure::from_loop(const LoopNest& nest,
                                                     const DependenceOptions& opts) {
  DependenceInfo info = analyze_dependences(nest, opts);
  IndexSet is(nest);
  return {is.points(), info.distance_vectors()};
}

namespace {

PointRows flatten(const std::vector<IntVec>& vertices) {
  if (vertices.empty()) throw std::invalid_argument("ComputationStructure: empty vertex set");
  PointRows rows(vertices.front().size());
  rows.reserve(vertices.size());
  for (const IntVec& v : vertices) {
    if (v.size() != rows.dim())
      throw std::invalid_argument("ComputationStructure: mixed vertex dimensions");
    rows.push_back(v);
  }
  return rows;
}

}  // namespace

ComputationStructure::ComputationStructure(const std::vector<IntVec>& vertices,
                                           std::vector<IntVec> dependences)
    : ComputationStructure(flatten(vertices), std::move(dependences)) {}

ComputationStructure::ComputationStructure(PointRows vertices, std::vector<IntVec> dependences)
    : dim_(vertices.dim()), vertices_(std::move(vertices)), dependences_(std::move(dependences)) {
  if (vertices_.empty()) throw std::invalid_argument("ComputationStructure: empty vertex set");
  for (const IntVec& d : dependences_) {
    if (d.size() != dim_)
      throw std::invalid_argument("ComputationStructure: dependence dimension mismatch");
    if (is_zero(d)) throw std::invalid_argument("ComputationStructure: zero dependence vector");
  }
  if (vertices_.size() > kNoArc)
    throw Error(ErrorKind::Config, "ComputationStructure: " + std::to_string(vertices_.size()) +
                                       " vertices exceed the 32-bit vertex-id limit");
  build_order();
  build_arc_table();
}

void ComputationStructure::build_order() {
  // Strictly increasing rows are merged as given; otherwise the ids are
  // sorted.  Either way, two equal neighbours in rank order are a
  // duplicate vertex.
  const std::size_t nv = vertices_.size();
  std::size_t rank = 1;
  while (rank < nv && lex_less(vertices_[rank - 1], vertices_[rank])) ++rank;
  if (rank < nv && !same_point(vertices_[rank - 1], vertices_[rank])) {
    order_.resize(nv);
    std::iota(order_.begin(), order_.end(), std::uint32_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::uint32_t a, std::uint32_t b) {
      return lex_less(vertices_[a], vertices_[b]);
    });
    rank = 1;
    while (rank < nv && !same_point(vertices_[order_[rank - 1]], vertices_[order_[rank]])) ++rank;
  }
  if (rank < nv) throw std::invalid_argument("ComputationStructure: duplicate vertex");
}

void ComputationStructure::build_arc_table() {
  const std::size_t nd = dependences_.size();
  arc_sink_.assign(vertices_.size() * nd, kNoArc);
  auto at = [&](std::size_t rank) { return vertices_[id_at(rank)]; };
  for (std::size_t k = 0; k < nd; ++k)
    for_each_shift_match(vertices_.size(), at, dependences_[k],
                         [&](std::size_t src, std::size_t sink) {
                           arc_sink_[id_at(src) * nd + k] = static_cast<std::uint32_t>(id_at(sink));
                           ++arc_count_;
                         });
}

std::optional<std::size_t> ComputationStructure::find_id(PointRef p) const {
  std::size_t lo = 0, hi = vertices_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (lex_less(vertices_[id_at(mid)], p)) lo = mid + 1;
    else hi = mid;
  }
  if (lo < vertices_.size() && same_point(vertices_[id_at(lo)], p)) return id_at(lo);
  return std::nullopt;
}

std::size_t ComputationStructure::id_of(const IntVec& p) const {
  std::optional<std::size_t> id = find_id(p);
  if (!id) throw std::out_of_range("ComputationStructure::id_of: point not in V");
  return *id;
}

std::vector<std::size_t> ComputationStructure::arc_columns(const DependenceInfo& info) const {
  std::vector<std::size_t> cols;
  cols.reserve(info.dependences.size());
  for (const Dependence& d : info.dependences) {
    auto it = std::find(dependences_.begin(), dependences_.end(), d.distance);
    if (it == dependences_.end())
      throw std::invalid_argument("ComputationStructure: dependence " + to_string(d.distance) +
                                  " is not in D");
    cols.push_back(static_cast<std::size_t>(it - dependences_.begin()));
  }
  return cols;
}

void ComputationStructure::for_each_arc(
    const std::function<void(const IntVec&, const IntVec&, std::size_t)>& visit) const {
  IntVec a, b;
  for_each_arc_id([&](std::size_t src, std::size_t dst, std::size_t k) {
    a.assign(vertices_[src].begin(), vertices_[src].end());
    b.assign(vertices_[dst].begin(), vertices_[dst].end());
    visit(a, b, k);
  });
}

Digraph ComputationStructure::to_digraph() const {
  Digraph g(vertices_.size());
  for_each_arc_id([&](std::size_t src, std::size_t dst, std::size_t) { g.add_edge(src, dst); });
  return g;
}

bool ComputationStructure::is_acyclic() const { return to_digraph().is_acyclic(); }

}  // namespace hypart
