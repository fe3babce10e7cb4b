#include "graph/digraph.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace hypart {

std::size_t Digraph::add_vertex() {
  out_.emplace_back();
  in_.emplace_back();
  return out_.size() - 1;
}

void Digraph::add_edge(std::size_t u, std::size_t v, std::int64_t weight) {
  if (u >= out_.size() || v >= out_.size()) throw std::out_of_range("Digraph::add_edge");
  for (Edge& e : out_[u]) {
    if (e.to == v) {
      e.weight += weight;
      for (Edge& r : in_[v])
        if (r.to == u) {
          r.weight += weight;
          break;
        }
      return;
    }
  }
  out_[u].push_back({v, weight});
  in_[v].push_back({u, weight});
  ++edges_;
}

bool Digraph::has_edge(std::size_t u, std::size_t v) const {
  return std::any_of(out_[u].begin(), out_[u].end(), [v](const Edge& e) { return e.to == v; });
}

std::int64_t Digraph::edge_weight(std::size_t u, std::size_t v) const {
  for (const Edge& e : out_[u])
    if (e.to == v) return e.weight;
  return 0;
}

bool Digraph::same_weights(const Digraph& other) const {
  if (vertex_count() != other.vertex_count() || edge_count() != other.edge_count()) return false;
  for (std::size_t u = 0; u < vertex_count(); ++u) {
    if (out_degree(u) != other.out_degree(u)) return false;
    for (const Edge& e : out_[u])
      if (other.edge_weight(u, e.to) != e.weight) return false;
  }
  return true;
}

std::int64_t Digraph::total_weight() const {
  std::int64_t w = 0;
  for (const auto& adj : out_)
    for (const Edge& e : adj) w += e.weight;
  return w;
}

std::vector<std::size_t> Digraph::topological_order() const {
  std::vector<std::size_t> indeg(vertex_count());
  for (std::size_t v = 0; v < vertex_count(); ++v) indeg[v] = in_[v].size();
  std::deque<std::size_t> ready;
  for (std::size_t v = 0; v < vertex_count(); ++v)
    if (indeg[v] == 0) ready.push_back(v);
  std::vector<std::size_t> order;
  order.reserve(vertex_count());
  while (!ready.empty()) {
    std::size_t u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (const Edge& e : out_[u])
      if (--indeg[e.to] == 0) ready.push_back(e.to);
  }
  if (order.size() != vertex_count()) return {};
  return order;
}

bool Digraph::is_acyclic() const {
  return vertex_count() == 0 || !topological_order().empty();
}

std::vector<std::size_t> Digraph::reachable_from(std::size_t start) const {
  std::vector<bool> seen(vertex_count(), false);
  std::vector<std::size_t> stack{start};
  std::vector<std::size_t> result;
  seen[start] = true;
  while (!stack.empty()) {
    std::size_t u = stack.back();
    stack.pop_back();
    result.push_back(u);
    for (const Edge& e : out_[u])
      if (!seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
  }
  return result;
}

std::vector<std::size_t> Digraph::weak_components() const {
  std::vector<std::size_t> comp(vertex_count(), SIZE_MAX);
  std::size_t next = 0;
  for (std::size_t s = 0; s < vertex_count(); ++s) {
    if (comp[s] != SIZE_MAX) continue;
    std::vector<std::size_t> stack{s};
    comp[s] = next;
    while (!stack.empty()) {
      std::size_t u = stack.back();
      stack.pop_back();
      for (const Edge& e : out_[u])
        if (comp[e.to] == SIZE_MAX) {
          comp[e.to] = next;
          stack.push_back(e.to);
        }
      for (const Edge& e : in_[u])
        if (comp[e.to] == SIZE_MAX) {
          comp[e.to] = next;
          stack.push_back(e.to);
        }
    }
    ++next;
  }
  return comp;
}

std::size_t Digraph::dag_longest_path() const {
  std::vector<std::size_t> order = topological_order();
  if (order.empty() && vertex_count() > 0)
    throw std::logic_error("Digraph::dag_longest_path: graph is cyclic");
  std::vector<std::size_t> dist(vertex_count(), 0);
  std::size_t best = 0;
  for (std::size_t u : order)
    for (const Edge& e : out_edges(u)) {
      dist[e.to] = std::max(dist[e.to], dist[u] + 1);
      best = std::max(best, dist[e.to]);
    }
  return best;
}

}  // namespace hypart
