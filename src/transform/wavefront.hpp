// hypart — wavefront (time-skewing) loop transformation.
//
// A valid time function Π with gcd(Π) = 1 extends to a unimodular matrix
// U whose first row is Π; the coordinate change I' = U·I re-expresses the
// nest with time as the outermost loop:
//
//     for t = t_min .. t_max            // hyperplane Π·I = t
//       forall (s_1..s_{n-1}) in S(t)   // independent iterations of step t
//         body(U^{-1} · (t, s))
//
// This is the loop restructuring a parallelizing compiler performs before
// the partitioning phase; Algorithm 1's projection is exactly the
// spatial part of this transform.  The module computes the completion,
// transforms points and dependences, derives per-step bounds, and
// pretty-prints the transformed nest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/comp_structure.hpp"
#include "schedule/hyperplane.hpp"

namespace hypart {

struct WavefrontTransform {
  IntMat u;          ///< unimodular, first row = Π
  IntMat u_inverse;  ///< exact integer inverse (|det U| = 1)
  TimeFunction pi;

  /// I' = U·I (first coordinate is the step).
  [[nodiscard]] IntVec apply(PointRef point) const;
  /// I = U^{-1}·I'.
  [[nodiscard]] IntVec invert(const IntVec& transformed) const;

  /// Transformed dependence vectors U·d; first component positive for all
  /// valid Π (time strictly advances along every dependence).
  [[nodiscard]] std::vector<IntVec> transform_dependences(
      const std::vector<IntVec>& deps) const;
};

/// Complete Π into a unimodular transform.  Requires gcd of Π's components
/// to be 1 (otherwise no integer unimodular completion exists); throws
/// std::invalid_argument otherwise.
WavefrontTransform make_wavefront_transform(const TimeFunction& pi);

/// The spatial iterations of every time step: step -> sorted spatial
/// coordinate vectors (n-1 entries each).
std::map<std::int64_t, std::vector<IntVec>> wavefront_slices(const WavefrontTransform& wt,
                                                             const ComputationStructure& q);

/// Pretty-print the transformed nest:
///   for t = .. ; forall (s...) in S(t); body(original indices)
std::string wavefront_loop_to_string(const WavefrontTransform& wt,
                                     const ComputationStructure& q,
                                     const std::vector<std::string>& index_names = {});

}  // namespace hypart
