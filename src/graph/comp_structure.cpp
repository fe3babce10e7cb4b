#include "graph/comp_structure.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/error.hpp"

namespace hypart {

namespace {

/// Three-way lexicographic comparison of p against q + d.  Exact where
/// q + d leaves the int64 range: such a coordinate lies beyond every point.
int compare_shifted(const IntVec& p, const IntVec& q, const IntVec& d) {
  for (std::size_t c = 0; c < p.size(); ++c) {
    std::int64_t t = 0;
    if (__builtin_add_overflow(q[c], d[c], &t)) return d[c] > 0 ? -1 : 1;
    if (p[c] != t) return p[c] < t ? -1 : 1;
  }
  return 0;
}

}  // namespace

ComputationStructure ComputationStructure::from_loop(const LoopNest& nest,
                                                     const DependenceOptions& opts) {
  DependenceInfo info = analyze_dependences(nest, opts);
  IndexSet is(nest);
  return {is.points(), info.distance_vectors()};
}

ComputationStructure::ComputationStructure(std::vector<IntVec> vertices,
                                           std::vector<IntVec> dependences)
    : vertices_(std::move(vertices)), dependences_(std::move(dependences)) {
  if (vertices_.empty()) throw std::invalid_argument("ComputationStructure: empty vertex set");
  dim_ = vertices_.front().size();
  for (const IntVec& v : vertices_)
    if (v.size() != dim_)
      throw std::invalid_argument("ComputationStructure: mixed vertex dimensions");
  for (const IntVec& d : dependences_) {
    if (d.size() != dim_)
      throw std::invalid_argument("ComputationStructure: dependence dimension mismatch");
    if (is_zero(d)) throw std::invalid_argument("ComputationStructure: zero dependence vector");
  }
  if (vertices_.size() > kNoArc)
    throw Error(ErrorKind::Config, "ComputationStructure: " + std::to_string(vertices_.size()) +
                                       " vertices exceed the 32-bit vertex-id limit");
  index_.reserve(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (!index_.emplace(vertices_[i], i).second)
      throw std::invalid_argument("ComputationStructure: duplicate vertex");
  }
  build_arc_table();
}

void ComputationStructure::build_arc_table() {
  const std::size_t nv = vertices_.size();
  const std::size_t nd = dependences_.size();
  // Lexicographic rank -> vertex id; the identity when V arrives sorted.
  const bool sorted = std::is_sorted(vertices_.begin(), vertices_.end());
  std::vector<std::uint32_t> order;
  if (!sorted) {
    order.resize(nv);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) { return vertices_[a] < vertices_[b]; });
  }
  auto id_at = [&](std::size_t rank) -> std::size_t { return sorted ? rank : order[rank]; };

  // Sources in lexicographic order have sinks in lexicographic order, so
  // the sink cursor only moves forward.
  arc_sink_.assign(nv * nd, kNoArc);
  for (std::size_t k = 0; k < nd; ++k) {
    const IntVec& d = dependences_[k];
    std::size_t sink = 0;
    for (std::size_t rank = 0; rank < nv && sink < nv; ++rank) {
      const std::size_t src = id_at(rank);
      int cmp = -1;
      while (sink < nv && (cmp = compare_shifted(vertices_[id_at(sink)], vertices_[src], d)) < 0)
        ++sink;
      if (sink < nv && cmp == 0) {
        arc_sink_[src * nd + k] = static_cast<std::uint32_t>(id_at(sink));
        ++arc_count_;
      }
    }
  }
}

std::size_t ComputationStructure::id_of(const IntVec& p) const {
  auto it = index_.find(p);
  if (it == index_.end())
    throw std::out_of_range("ComputationStructure::id_of: point not in V");
  return it->second;
}

void ComputationStructure::for_each_arc(
    const std::function<void(const IntVec&, const IntVec&, std::size_t)>& visit) const {
  for_each_arc_id([&](std::size_t src, std::size_t dst, std::size_t k) {
    visit(vertices_[src], vertices_[dst], k);
  });
}

Digraph ComputationStructure::to_digraph() const {
  Digraph g(vertices_.size());
  for_each_arc_id([&](std::size_t src, std::size_t dst, std::size_t) { g.add_edge(src, dst); });
  return g;
}

bool ComputationStructure::is_acyclic() const { return to_digraph().is_acyclic(); }

}  // namespace hypart
