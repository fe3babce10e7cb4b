#include "baselines/independent.hpp"

#include <map>
#include <stdexcept>

namespace hypart {

IntVec lattice_residue(PointRef x, const HermiteResult& h) {
  IntVec r(x.begin(), x.end());
  // Walk the pivots of the column HNF: pivot k sits in column k; its row is
  // the first row where the column is nonzero below all earlier pivots.
  std::size_t row = 0;
  for (std::size_t c = 0; c < h.rank; ++c) {
    // Find this pivot's row (first nonzero entry of column c at/after `row`).
    while (row < h.h.rows() && h.h.at(row, c) == 0) ++row;
    if (row == h.h.rows()) break;
    std::int64_t piv = h.h.at(row, c);
    std::int64_t v = r[row];
    std::int64_t q = v / piv;
    if (v % piv < 0) --q;  // floor division keeps residues in [0, piv)
    if (q != 0)
      for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = detail::checked_sub(r[i], detail::checked_mul(q, h.h.at(i, c)));
    ++row;
  }
  return r;
}

IndependentPartition independent_partition(const ComputationStructure& q) {
  IndependentPartition result;
  const std::vector<IntVec>& deps = q.dependences();

  if (deps.empty()) {
    // No dependences: every iteration is its own block.
    result.lattice_rank = 0;
    result.lattice_class_count = 0;
    result.labels.resize(q.vertices().size());
    for (std::size_t i = 0; i < result.labels.size(); ++i) result.labels[i] = i;
    result.block_count = result.labels.size();
    return result;
  }

  IntMat d = IntMat::from_cols(deps);
  HermiteResult h = hermite_normal_form(d);
  result.lattice_rank = h.rank;

  SmithResult s = smith_normal_form(d);
  result.elementary_divisors = s.divisors;
  if (h.rank == q.dimension()) {
    std::int64_t product = 1;
    for (std::int64_t e : s.divisors) product = detail::checked_mul(product, e);
    result.lattice_class_count = product;
  }

  std::map<IntVec, std::size_t> class_ids;
  result.labels.reserve(q.vertices().size());
  for (PointRef v : q.vertices()) {
    IntVec res = lattice_residue(v, h);
    auto [it, inserted] = class_ids.try_emplace(res, class_ids.size());
    result.labels.push_back(it->second);
  }
  result.block_count = class_ids.size();
  return result;
}

}  // namespace hypart
