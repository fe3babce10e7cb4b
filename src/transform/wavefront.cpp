#include "transform/wavefront.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "numeric/rat_matrix.hpp"

namespace hypart {

IntVec WavefrontTransform::apply(PointRef point) const {
  IntVec out(u.rows());
  for (std::size_t r = 0; r < u.rows(); ++r) out[r] = dot(u.row(r), point);
  return out;
}

IntVec WavefrontTransform::invert(const IntVec& transformed) const {
  IntVec out(u_inverse.rows());
  for (std::size_t r = 0; r < u_inverse.rows(); ++r)
    out[r] = dot(u_inverse.row(r), transformed);
  return out;
}

std::vector<IntVec> WavefrontTransform::transform_dependences(
    const std::vector<IntVec>& deps) const {
  std::vector<IntVec> out;
  out.reserve(deps.size());
  for (const IntVec& d : deps) out.push_back(apply(d));
  return out;
}

WavefrontTransform make_wavefront_transform(const TimeFunction& pi) {
  const std::size_t n = pi.dimension();
  if (n == 0) throw std::invalid_argument("make_wavefront_transform: empty time function");
  if (content(pi.pi) != 1)
    throw std::invalid_argument(
        "make_wavefront_transform: gcd of the time function's components must be 1 "
        "(no unimodular completion exists for " +
        to_string(pi.pi) + ")");

  // Column-reduce Π (as a 1 x n matrix) to (1, 0, ..., 0): Π · V = e1 with
  // V unimodular.  Then U = V^{-1} has first row Π, and U^{-1} = V.
  IntMat row(1, n);
  for (std::size_t c = 0; c < n; ++c) row.at(0, c) = pi.pi[c];
  HermiteResult h = hermite_normal_form(row);
  // h.h == (g, 0, ..., 0) with g = 1 by the content check.
  if (h.h.at(0, 0) != 1)
    throw std::logic_error("make_wavefront_transform: HNF pivot is not the gcd");

  WavefrontTransform wt;
  wt.pi = pi;
  wt.u_inverse = h.u;  // V
  RatMat v = RatMat::from_int(h.u);
  std::optional<RatMat> vinv = v.inverse();
  if (!vinv) throw std::logic_error("make_wavefront_transform: completion not invertible");
  wt.u = IntMat(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) wt.u.at(r, c) = vinv->at(r, c).to_integer();
  return wt;
}

std::map<std::int64_t, std::vector<IntVec>> wavefront_slices(const WavefrontTransform& wt,
                                                             const ComputationStructure& q) {
  std::map<std::int64_t, std::vector<IntVec>> slices;
  for (PointRef v : q.vertices()) {
    IntVec t = wt.apply(v);
    IntVec spatial(t.begin() + 1, t.end());
    slices[t[0]].push_back(std::move(spatial));
  }
  for (auto& [step, pts] : slices) std::sort(pts.begin(), pts.end());
  return slices;
}

std::string wavefront_loop_to_string(const WavefrontTransform& wt,
                                     const ComputationStructure& q,
                                     const std::vector<std::string>& index_names) {
  std::map<std::int64_t, std::vector<IntVec>> slices = wavefront_slices(wt, q);
  std::ostringstream os;
  if (slices.empty()) return "(empty iteration space)\n";

  os << "// wavefront form: U =\n";
  {
    std::istringstream rows(wt.u.to_string());
    std::string line;
    while (std::getline(rows, line)) os << "//   " << line << "\n";
  }
  os << "for t = " << slices.begin()->first << " to " << slices.rbegin()->first
     << "   // hyperplane " << wt.pi.to_string() << " . I = t\n";
  for (const auto& [step, pts] : slices) {
    os << "  t = " << step << ": forall " << pts.size() << " iteration"
       << (pts.size() == 1 ? "" : "s") << " {";
    std::size_t shown = 0;
    for (const IntVec& s : pts) {
      if (shown == 6) {
        os << " ...";
        break;
      }
      // Recover and print the original index point.
      IntVec full(s.size() + 1);
      full[0] = step;
      std::copy(s.begin(), s.end(), full.begin() + 1);
      IntVec original = wt.invert(full);
      os << " ";
      if (!index_names.empty()) {
        os << "(";
        for (std::size_t k = 0; k < original.size(); ++k) {
          if (k) os << ",";
          os << original[k];
        }
        os << ")";
      } else {
        os << to_string(original);
      }
      ++shown;
    }
    os << " }\n";
  }
  return os.str();
}

}  // namespace hypart
