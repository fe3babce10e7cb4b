// hypart — grouping phase of Algorithm 1 (paper Section III, Defs. 6-8).
//
// Projected points are gathered into groups of r along the grouping vector
// d_l^p (the projected dependence with the largest replication factor), with
// group base vertices propagated along the auxiliary grouping vectors by
// region growing (the paper's Steps 3-5).  Each group's projection lines
// together form one partitioned block.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "partition/projection.hpp"

namespace hypart {

/// How Step 3 / Step 5 pick the seed ("select a line arbitrarily; choose a
/// projected point lying on this line").
enum class SeedPolicy {
  /// Seed each region-growing component at the lexicographically smallest
  /// ungrouped projected point (deterministic default).  This pins the
  /// component-id numbering: component k is the k-th region in ascending
  /// order of its lex-smallest member, so component ids — and therefore
  /// group ids, lattice coordinates, and the Algorithm 2 processor
  /// assignment — are identical across runs and platforms.  The symbolic
  /// group lattice (partition/group_lattice.hpp) relies on this pin to
  /// reproduce dense group numbering without materializing groups;
  /// regression-tested in tests/test_grouping.cpp
  /// (LexicographicComponentNumberingIsPinned).
  Lexicographic,
  ExplicitBases  ///< use the caller-provided base vertices (reproduces the paper's figures)
};

struct GroupingOptions {
  SeedPolicy seed_policy = SeedPolicy::Lexicographic;
  /// Seed base vertices in *scaled* coordinates, consumed in order when
  /// seed_policy == ExplicitBases (falls back to lexicographic when empty).
  std::vector<IntVec> explicit_bases;
  /// Override the grouping-vector choice (index into the projected
  /// dependence list) — Algorithm 1 breaks ties arbitrarily; this pins them.
  std::optional<std::size_t> grouping_vector;
  /// Override the auxiliary grouping vectors Ψ (indices into the projected
  /// dependence list).  Step 2 allows any β-1 choices that are linearly
  /// independent together with the grouping vector; this pins them (the
  /// paper's Example 2 uses d_C^p).  Validated for independence.
  std::optional<std::vector<std::size_t>> auxiliary_vectors;
};

/// Algorithm 1 Steps 1-2: the group size r, the grouping vector d_l^p (the
/// first projected dependence attaining the largest replication factor,
/// unless overridden) and the auxiliary vectors Ψ (the first β-1 projected
/// dependences extending its span, unless overridden).  They depend on D
/// and Π only, so every grouping — dense, line-based, lattice — takes them
/// from choose_grouping.
struct GroupingChoice {
  std::int64_t r = 1;
  /// Index of d_l^p; nullopt when every projected dependence is zero or
  /// the override picks a zero one (degenerate: r = 1, β = 0, each
  /// projected point its own group).
  std::optional<std::size_t> grouping;
  std::vector<std::size_t> aux;  ///< indices of Ψ
  std::size_t beta = 0;          ///< rank(mat(D^p))
};

/// Throws std::invalid_argument on an invalid grouping or auxiliary override.
GroupingChoice choose_grouping(const ProjectionFrame& frame, const GroupingOptions& opts);

/// One group G_i: up to r projected points ordered along the grouping
/// vector from the base vertex (slot k = base + k*d_l^p).  Boundary groups
/// have unpopulated slots (the paper's G_4 in Fig. 3(b)).
struct Group {
  IntVec base;      ///< scaled coordinates of slot 0 (may itself be unpopulated)
  std::vector<std::optional<std::size_t>> slots;  ///< projected-point id per slot
  IntVec lattice;   ///< integer coords (a, b_1..b_{β-1}) on the group-base lattice
  std::size_t component = 0;  ///< region-growing component this group belongs to

  [[nodiscard]] std::vector<std::size_t> members() const;
  [[nodiscard]] std::size_t size() const;
};

/// Result of the grouping phase.
class Grouping {
 public:
  static Grouping compute(const ProjectedStructure& ps, const GroupingOptions& opts = {});

  [[nodiscard]] const ProjectedStructure& projected() const { return *ps_; }
  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  /// Group id of a projected point.
  [[nodiscard]] std::size_t group_of_point(std::size_t point_id) const;

  /// Steps 1-2 (see GroupingChoice).
  [[nodiscard]] std::int64_t group_size_r() const { return choice_.r; }
  [[nodiscard]] std::optional<std::size_t> grouping_vector_index() const {
    return choice_.grouping;
  }
  [[nodiscard]] const std::vector<std::size_t>& auxiliary_vector_indices() const {
    return choice_.aux;
  }
  [[nodiscard]] std::size_t beta() const { return choice_.beta; }

  /// Scaled direction vectors of the group-base lattice, one per lattice
  /// coordinate: r*d_l^p first, then each auxiliary d_j^p.  These are the
  /// Ω directions Algorithm 2's cluster formation bisects along.
  [[nodiscard]] std::vector<IntVec> lattice_directions() const;

  /// Group-level dependence graph (the paper's Fig. 7): an arc G_i -> G_j
  /// for every projected dependence relation crossing from G_i into G_j,
  /// weighted by the number of crossing projected-point pairs.
  [[nodiscard]] Digraph group_digraph() const;

 private:
  const ProjectedStructure* ps_ = nullptr;
  std::vector<Group> groups_;
  std::vector<std::size_t> point_group_;  // point id -> group id
  GroupingChoice choice_;
};

}  // namespace hypart
