// hypart — the computational structure Q = (V, D) of a nested loop (Def. 2).
//
// V is the index set J^n, D the set of constant dependence vectors.  There
// is an arc v_i -> v_j whenever v_j - v_i in D (v_j depends on v_i).
//
// Every arc is resolved to vertex ids once, at construction, into a flat
// arc table of |V|·|D| entries: entry [v·|D| + k] is the id of v + d_k, or
// kNoArc when that point is not in V.  The build does not hash: translation
// by d_k preserves lexicographic order, so one linear merge of the sorted
// vertex order against itself shifted by d_k finds every sink.  Vertices
// already in lexicographic order (IndexSet::points()) are merged as given;
// otherwise an id permutation is sorted first.  Ids are 32-bit and kNoArc
// is the largest, so a vertex set of more than 2^32 - 1 points is refused
// with Error(ErrorKind::Config), never truncated.
// Partition statistics, the TIG and the dense simulator all read the table.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "graph/digraph.hpp"
#include "loop/dependence.hpp"
#include "loop/index_set.hpp"
#include "loop/loop_nest.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart {

/// Hash for integer index points so structures can key on them.  Each
/// coordinate is passed through a full splitmix64 finalizer before mixing:
/// the previous xor-shift combiner left small-stride grid points clustered
/// in a few buckets (identical low bits), degrading the dense point maps to
/// linked-list scans.
struct IntVecHash {
  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  std::size_t operator()(const IntVec& v) const noexcept {
    std::uint64_t h = mix(static_cast<std::uint64_t>(v.size()));
    for (std::int64_t x : v) h = mix(h ^ static_cast<std::uint64_t>(x));
    return static_cast<std::size_t>(h);
  }
};

using PointIndexMap = std::unordered_map<IntVec, std::size_t, IntVecHash>;

class ComputationStructure {
 public:
  /// Build from a nest, analyzing dependences automatically.
  static ComputationStructure from_loop(const LoopNest& nest, const DependenceOptions& opts = {});

  /// Build from explicit vertex set and dependence vectors.
  ComputationStructure(std::vector<IntVec> vertices, std::vector<IntVec> dependences);

  [[nodiscard]] std::size_t dimension() const { return dim_; }
  [[nodiscard]] const std::vector<IntVec>& vertices() const { return vertices_; }
  [[nodiscard]] const std::vector<IntVec>& dependences() const { return dependences_; }
  [[nodiscard]] const PointIndexMap& vertex_index() const { return index_; }

  [[nodiscard]] bool contains(const IntVec& p) const { return index_.contains(p); }
  /// Vertex id of point p; throws if absent.
  [[nodiscard]] std::size_t id_of(const IntVec& p) const;

  /// Arc-table entry of a (vertex, dependence) pair whose sink is not in V.
  static constexpr std::uint32_t kNoArc = UINT32_MAX;

  /// Total number of dependence arcs (pairs (j, j+d) with both ends in V).
  /// For L1 on a 4x4 domain this is the paper's count of 33.
  [[nodiscard]] std::size_t dependence_arc_count() const { return arc_count_; }

  /// Visit every arc as (source id, sink id, dependence-vector index),
  /// vertex-major and dependence-minor, straight from the arc table.
  template <class Visit>
  void for_each_arc_id(Visit&& visit) const {
    const std::size_t nd = dependences_.size();
    const std::uint32_t* entry = arc_sink_.data();
    for (std::size_t src = 0; src < vertices_.size(); ++src)
      for (std::size_t k = 0; k < nd; ++k, ++entry)
        if (*entry != kNoArc) visit(src, static_cast<std::size_t>(*entry), k);
  }

  /// Visit every arc (source point, sink point, dependence-vector index),
  /// in for_each_arc_id's order.
  void for_each_arc(
      const std::function<void(const IntVec&, const IntVec&, std::size_t)>& visit) const;

  /// Materialize as an explicit digraph (vertex ids match vertices()).
  [[nodiscard]] Digraph to_digraph() const;

  /// A computational structure of a nested loop must be acyclic; verified
  /// via the explicit digraph (cheap for the sizes used in tests/benches).
  [[nodiscard]] bool is_acyclic() const;

 private:
  std::size_t dim_ = 0;
  std::vector<IntVec> vertices_;
  std::vector<IntVec> dependences_;
  PointIndexMap index_;
  std::vector<std::uint32_t> arc_sink_;  ///< the arc table, |V|·|D| entries
  std::size_t arc_count_ = 0;

  void build_arc_table();
};

}  // namespace hypart
