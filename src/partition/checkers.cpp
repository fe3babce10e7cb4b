#include "partition/checkers.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace hypart {

bool check_exact_cover(const ComputationStructure& q, const Partition& p) {
  std::vector<bool> seen(q.vertices().size(), false);
  std::size_t assigned = 0;
  for (const PartitionBlock& b : p.blocks()) {
    for (std::size_t vid : b.iterations) {
      if (vid >= seen.size() || seen[vid]) return false;
      seen[vid] = true;
      ++assigned;
    }
  }
  return assigned == q.vertices().size();
}

bool check_theorem1(const ComputationStructure& q, const TimeFunction& tf, const Partition& p) {
  std::vector<std::int64_t> steps;  // one buffer, reused by every block
  for (const PartitionBlock& b : p.blocks()) {
    steps.clear();
    for (std::size_t vid : b.iterations) steps.push_back(tf.step_of(q.vertices()[vid]));
    std::sort(steps.begin(), steps.end());
    // Two iterations sharing a hyperplane violate the schedule.
    if (std::adjacent_find(steps.begin(), steps.end()) != steps.end()) return false;
  }
  return true;
}

bool check_exact_cover(const IterSpace& space, const Grouping& grouping) {
  const ProjectedStructure& ps = grouping.projected();
  std::vector<bool> seen(ps.point_count(), false);
  std::uint64_t covered = 0;
  for (const Group& g : grouping.groups()) {
    for (std::size_t pid : g.members()) {
      if (pid >= seen.size() || seen[pid]) return false;
      seen[pid] = true;
      covered += static_cast<std::uint64_t>(ps.line_population(pid));
    }
  }
  return covered == space.size();
}

bool check_theorem1(const IterSpace& /*space*/, const Grouping& grouping) {
  // Line `pid` executes at steps t0(pid) + k*sigma for 0 <= k < pop(pid);
  // the box geometry is already folded into the populations.
  const ProjectedStructure& ps = grouping.projected();
  const std::int64_t sigma = ps.step_stride();
  const TimeFunction& tf = ps.time_function();
  for (const Group& g : grouping.groups()) {
    std::vector<std::size_t> members = g.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      std::int64_t ti = tf.step_of(ps.line_representative(members[i]));
      std::int64_t pi = static_cast<std::int64_t>(ps.line_population(members[i]));
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        std::int64_t tj = tf.step_of(ps.line_representative(members[j]));
        std::int64_t pj = static_cast<std::int64_t>(ps.line_population(members[j]));
        std::int64_t diff = tj - ti;
        if (diff % sigma != 0) continue;  // distinct residues never collide
        std::int64_t m = diff / sigma;    // collide iff k = m + k' is feasible
        if (m >= -(pj - 1) && m <= pi - 1) return false;
      }
    }
  }
  return true;
}

std::string Theorem2Report::to_string() const {
  std::ostringstream os;
  os << "Theorem 2: m=" << m << " beta=" << beta << " bound=2m-beta=" << bound
     << " observed max out-degree=" << max_out_degree << " => " << (holds ? "HOLDS" : "VIOLATED");
  return os.str();
}

Theorem2Report check_theorem2(const Grouping& grouping) {
  Theorem2Report rep;
  rep.m = grouping.projected().original_deps().size();
  rep.beta = grouping.beta();
  rep.bound = 2 * rep.m - rep.beta;
  Digraph g = grouping.group_digraph();
  for (std::size_t v = 0; v < g.vertex_count(); ++v)
    rep.max_out_degree = std::max(rep.max_out_degree, g.out_degree(v));
  rep.holds = rep.max_out_degree <= rep.bound;
  return rep;
}

LemmaReport check_lemmas(const Grouping& grouping) {
  LemmaReport rep;
  rep.lemma2_holds = true;
  rep.lemma3_holds = true;
  const ProjectedStructure& ps = grouping.projected();
  const std::vector<IntVec>& pdeps = ps.projected_deps_scaled();

  std::unordered_set<std::size_t> special;  // grouping + auxiliary dep indices
  if (grouping.grouping_vector_index()) special.insert(*grouping.grouping_vector_index());
  for (std::size_t k : grouping.auxiliary_vector_indices()) special.insert(k);

  // For Lemma 2/3 purposes a dependence direction is "special" if its
  // projected vector equals a grouping/auxiliary vector (the paper reasons
  // about directions, and duplicate dependences share a direction).
  auto is_special_direction = [&](std::size_t k) {
    if (special.contains(k)) return true;
    for (std::size_t s : special)
      if (pdeps[k] == pdeps[s]) return true;
    return false;
  };

  std::vector<std::size_t> succ;  // distinct successor groups, one buffer
  for (std::size_t gid = 0; gid < grouping.group_count(); ++gid) {
    const Group& grp = grouping.groups()[gid];
    for (std::size_t k = 0; k < pdeps.size(); ++k) {
      if (is_zero(pdeps[k])) continue;
      succ.clear();
      for (const std::optional<std::size_t>& slot : grp.slots) {
        if (!slot) continue;
        std::optional<std::size_t> q = ps.arc_target(*slot, k);
        if (!q) continue;
        std::size_t gq = grouping.group_of_point(*q);
        if (gq != gid) succ.push_back(gq);
      }
      std::sort(succ.begin(), succ.end());
      succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
      if (is_special_direction(k)) {
        rep.worst_lemma2_fanout = std::max(rep.worst_lemma2_fanout, succ.size());
        if (succ.size() > 1) rep.lemma2_holds = false;
      } else {
        rep.worst_lemma3_fanout = std::max(rep.worst_lemma3_fanout, succ.size());
        if (succ.size() > 2) rep.lemma3_holds = false;
      }
    }
  }
  return rep;
}

}  // namespace hypart
