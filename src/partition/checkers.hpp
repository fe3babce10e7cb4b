// hypart — validity checkers for the paper's theorems and lemmas.
//
// These are library code (not just test helpers) so downstream users can
// validate partitions of their own loops:
//   Theorem 1 — blocks obey the schedule defined by Π (no two iterations of
//               a block share a hyperplane).
//   Theorem 2 — a group sends data to at most 2m - β groups.
//   Lemma 2   — along the grouping vector and each auxiliary vector a group
//               depends on at most one group.
//   Lemma 3   — along every other projected dependence a group depends on
//               at most two groups.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loop/iter_space.hpp"
#include "partition/blocks.hpp"

namespace hypart {

/// Every vertex of Q appears in exactly one block.
bool check_exact_cover(const ComputationStructure& q, const Partition& p);

/// Symbolic exact cover: every projected point belongs to exactly one group
/// and the groups' line populations sum to |J^n| — no points materialized.
bool check_exact_cover(const IterSpace& space, const Grouping& grouping);

/// Theorem 1: within each block, all iterations have pairwise-distinct
/// execution steps under Π (so a block never delays the hyperplane schedule).
bool check_theorem1(const ComputationStructure& q, const TimeFunction& tf, const Partition& p);

/// Symbolic Theorem 1: a block's lines occupy strided step runs
/// {t0 + k·σ, 0 <= k < pop}, so two iterations collide iff two member runs
/// are congruent mod σ with overlapping ranges — O(r²) per group.
bool check_theorem1(const IterSpace& space, const Grouping& grouping);

struct Theorem2Report {
  std::size_t m = 0;               ///< number of dependence vectors
  std::size_t beta = 0;            ///< rank(mat(D^p))
  std::size_t bound = 0;           ///< 2m - β
  std::size_t max_out_degree = 0;  ///< observed max #groups a group sends to
  bool holds = false;
  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Theorem2Report&, const Theorem2Report&) = default;
};

/// Theorem 2 on the group-level communication graph.
Theorem2Report check_theorem2(const Grouping& grouping);

struct LemmaReport {
  bool lemma2_holds = false;  ///< ≤1 successor group along grouping/auxiliary dirs
  bool lemma3_holds = false;  ///< ≤2 successor groups along the remaining dirs
  std::size_t worst_lemma2_fanout = 0;
  std::size_t worst_lemma3_fanout = 0;
  friend bool operator==(const LemmaReport&, const LemmaReport&) = default;
};

/// Per-direction successor-group fanout checks (Lemmas 2 and 3).
LemmaReport check_lemmas(const Grouping& grouping);

}  // namespace hypart
