// hypart — the computational structure Q = (V, D) of a nested loop (Def. 2).
//
// V is the index set J^n, D the set of constant dependence vectors.  There
// is an arc v_i -> v_j whenever v_j - v_i in D (v_j depends on v_i).
//
// V is stored as one row-major int64 buffer (PointRows, stride n): vertex
// id v is row v, and readers take rows as PointRef views, so no vertex is
// a heap object of its own.  Every arc is resolved to vertex ids once, at
// construction, into a flat arc table of |V|·|D| entries: entry
// [v·|D| + k] is the id of v + d_k, or kNoArc when that point is not in V.
// The build does not hash: translation by d_k preserves lexicographic
// order, so one linear merge of the sorted rows against themselves shifted
// by d_k finds every sink.  Rows already in lexicographic order
// (IndexSet::points()) are merged as given; otherwise an id permutation is
// sorted first.  The same order rejects duplicate vertices and answers
// id_of/contains by binary search.  Ids are 32-bit and kNoArc is the
// largest, so a vertex set of more than 2^32 - 1 points is refused with
// Error(ErrorKind::Config), never truncated.  Partition statistics, the
// TIG, the dense simulator, the interpreter, the threaded workers and the
// SPMD code generator all read the rows and the table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "loop/dependence.hpp"
#include "loop/index_set.hpp"
#include "loop/loop_nest.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart {

/// Hash for integer index points (the interpreters' value stores key on
/// them).  Each
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

/// Three-way lexicographic comparison of p against q + d.  Exact where
/// q + d leaves the int64 range: such a coordinate lies beyond every point.
int compare_shifted(PointRef p, PointRef q, PointRef d);

/// The lexicographic shift merge behind every arc table: for n points in
/// lexicographic order (`at(rank)` is the rank-th point, as an IntVec or a
/// PointRef) and a vector d,
/// call emit(src_rank, sink_rank) for every source whose translate by d is
/// itself one of the points, sources in increasing rank.  Translation
/// preserves lexicographic order, so the sink cursor only moves forward:
/// O(n) comparisons, no hashing.
template <class At, class Emit>
void for_each_shift_match(std::size_t n, At&& at, const IntVec& d, Emit&& emit) {
  std::size_t sink = 0;
  for (std::size_t rank = 0; rank < n && sink < n; ++rank) {
    const PointRef src = at(rank);
    int cmp = -1;
    while (sink < n && (cmp = compare_shifted(at(sink), src, d)) < 0) ++sink;
    if (sink < n && cmp == 0) emit(rank, sink);
  }
}

class ComputationStructure {
 public:
  /// Build from a nest, analyzing dependences automatically.
  static ComputationStructure from_loop(const LoopNest& nest, const DependenceOptions& opts = {});

  /// Build from a vertex set (row v is vertex id v, in any order) and the
  /// dependence vectors.
  ComputationStructure(PointRows vertices, std::vector<IntVec> dependences);
  /// Same, from one vector per vertex; the rows are flattened once.
  ComputationStructure(const std::vector<IntVec>& vertices, std::vector<IntVec> dependences);

  [[nodiscard]] std::size_t dimension() const { return dim_; }
  /// V by vertex id: vertices()[vid] is row(vid).
  [[nodiscard]] const PointRows& vertices() const { return vertices_; }
  /// Coordinates of vertex vid, a view into the vertex buffer.
  [[nodiscard]] PointRef row(std::size_t vid) const { return vertices_[vid]; }
  [[nodiscard]] const std::vector<IntVec>& dependences() const { return dependences_; }

  /// Id of the rank-th vertex in lexicographic order.
  [[nodiscard]] std::size_t id_at(std::size_t rank) const {
    return order_.empty() ? rank : order_[rank];
  }

  /// Vertex id of point p, by binary search over the lexicographic order;
  /// nullopt if p is not in V.
  [[nodiscard]] std::optional<std::size_t> find_id(PointRef p) const;
  [[nodiscard]] bool contains(const IntVec& p) const { return find_id(p).has_value(); }
  /// Vertex id of point p; throws if absent.
  [[nodiscard]] std::size_t id_of(const IntVec& p) const;

  /// The arc-table column of every analyzed dependence, duplicates
  /// included: entry e is the index in dependences() of
  /// info.dependences[e].distance, so a reader walking Dependence entries
  /// makes one arc_sink read per (vertex, entry).  Throws
  /// std::invalid_argument when a distance is not in dependences().
  [[nodiscard]] std::vector<std::size_t> arc_columns(const DependenceInfo& info) const;

  /// Arc-table entry of a (vertex, dependence) pair whose sink is not in V.
  static constexpr std::uint32_t kNoArc = UINT32_MAX;

  /// Id of vertex vid + dependences()[k], or nullopt when it is not in V.
  /// One arc-table read.
  [[nodiscard]] std::optional<std::size_t> arc_sink(std::size_t vid, std::size_t k) const {
    const std::uint32_t e = arc_sink_[vid * dependences_.size() + k];
    if (e == kNoArc) return std::nullopt;
    return e;
  }

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
  /// in for_each_arc_id's order; the points are copies, reused between
  /// calls.
  void for_each_arc(
      const std::function<void(const IntVec&, const IntVec&, std::size_t)>& visit) const;

  /// Materialize as an explicit digraph (vertex ids match vertices()).
  [[nodiscard]] Digraph to_digraph() const;

  /// A computational structure of a nested loop must be acyclic; verified
  /// via the explicit digraph (cheap for the sizes used in tests/benches).
  [[nodiscard]] bool is_acyclic() const;

 private:
  std::size_t dim_ = 0;
  PointRows vertices_;
  std::vector<IntVec> dependences_;
  /// Lexicographic rank -> vertex id; empty when V arrived sorted (the
  /// identity).
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> arc_sink_;  ///< the arc table, |V|·|D| entries
  std::size_t arc_count_ = 0;

  void build_order();
  void build_arc_table();
};

}  // namespace hypart
