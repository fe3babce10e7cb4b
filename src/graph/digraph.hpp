// hypart — generic directed graph.
//
// Used for the computational structure (Def. 2), the projected structure
// (Def. 5), the group-level communication graph (Fig. 7) and the task
// interaction graph of the mapping phase.
#pragma once

#include <cstdint>
#include <vector>

namespace hypart {

/// A directed graph over vertices 0..n-1 with optional integer edge weights.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t n) : out_(n), in_(n) {}

  [[nodiscard]] std::size_t vertex_count() const { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_; }

  std::size_t add_vertex();
  /// Add edge u -> v with the given weight; parallel edges are merged and
  /// their weights accumulated.
  void add_edge(std::size_t u, std::size_t v, std::int64_t weight = 1);

  [[nodiscard]] bool has_edge(std::size_t u, std::size_t v) const;
  [[nodiscard]] std::int64_t edge_weight(std::size_t u, std::size_t v) const;

  struct Edge {
    std::size_t to;
    std::int64_t weight;
  };
  [[nodiscard]] const std::vector<Edge>& out_edges(std::size_t u) const { return out_[u]; }
  [[nodiscard]] const std::vector<Edge>& in_edges(std::size_t v) const { return in_[v]; }
  [[nodiscard]] std::size_t out_degree(std::size_t u) const { return out_[u].size(); }
  [[nodiscard]] std::size_t in_degree(std::size_t v) const { return in_[v].size(); }

  /// Same vertices, same edges and same weights, in any edge order.
  [[nodiscard]] bool same_weights(const Digraph& other) const;

  /// Total weight over all edges.
  [[nodiscard]] std::int64_t total_weight() const;

  /// Topological order; empty if the graph has a cycle.
  [[nodiscard]] std::vector<std::size_t> topological_order() const;
  [[nodiscard]] bool is_acyclic() const;

  /// Vertices reachable from `start` (including it).
  [[nodiscard]] std::vector<std::size_t> reachable_from(std::size_t start) const;

  /// Weakly-connected component id per vertex.
  [[nodiscard]] std::vector<std::size_t> weak_components() const;

  /// Longest path length (in edges) in a DAG; throws on cyclic graphs.
  [[nodiscard]] std::size_t dag_longest_path() const;

 private:
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  std::size_t edges_ = 0;
};

}  // namespace hypart
