// hypart::serve — nest canonicalization for the plan cache.
//
// The planner daemon (serve/service.hpp) answers structurally identical
// queries from a cache instead of re-deriving the same plan.  "Structurally
// identical" is made precise here by mapping a LoopNest to two canonical
// keys:
//
//  * `structure_key` abstracts everything the *time function* Π does not
//    depend on: index/array/loop names are replaced by position-of-first-
//    occurrence ids, and every loop-bound constant is replaced by its
//    equality-class id (first-occurrence numbering), so `for i = 1 to 64`
//    and `for i = 1 to 128` coincide while `for j = 1 to N` and
//    `for j = 1 to M` (two *different* symbols) stay distinct.  The key
//    also embeds the dependence set D, its column Hermite normal form and
//    its Smith elementary divisors (numeric/int_linalg.hpp): the normal
//    forms pin the dependence *lattice* invariants, the raw distance list
//    pins the generator set the paper's algorithms actually consume.
//    Since a valid Π is a function of D alone (Lamport's condition
//    Π·d > 0 for all d in D holds for every domain size), a cached Π can
//    be reused for any request with the same structure_key.
//
//  * `exact_key` is the structure_key plus the actual values of the
//    interned bound constants.  Two nests with equal exact keys produce
//    byte-identical plan documents up to names (all plan quantities —
//    counts, costs, mappings — are functions of bounds and D, never of
//    names), so the daemon can replay a cached document after renaming.
//
// Both keys are readable strings (auditable in `explain` replies and
// logs); the FNV-1a hashes are display/logging conveniences, never used
// for equality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json_writer.hpp"
#include "loop/dependence.hpp"
#include "loop/loop_nest.hpp"
#include "numeric/int_linalg.hpp"

namespace hypart::serve {

struct CanonicalForm {
  std::string structure_key;  ///< names + bound constants abstracted
  std::string exact_key;      ///< structure_key + interned constant values
  std::uint64_t structure_hash = 0;  ///< FNV-1a of structure_key (display)
  std::uint64_t exact_hash = 0;      ///< FNV-1a of exact_key (display)

  std::string loop_name;             ///< original nest name
  std::vector<std::string> arrays;   ///< canonical id k -> original array name

  std::vector<std::int64_t> smith_divisors;  ///< elementary divisors of D
  std::size_t lattice_rank = 0;              ///< rank of the dependence lattice

  /// 16-hex-digit renderings of the display hashes.
  [[nodiscard]] std::string structure_hex() const;
  [[nodiscard]] std::string exact_hex() const;
};

/// Canonicalize `nest` given its (already computed) dependence analysis.
CanonicalForm canonicalize_nest(const LoopNest& nest, const DependenceInfo& deps);

/// Convenience overload that runs analyze_dependences(nest) itself.
/// Throws NonUniformDependenceError for genuinely non-uniform nests.
CanonicalForm canonicalize_nest(const LoopNest& nest);

/// Write the `canonical` object of a plan reply or `hypart json` document
/// as the next value of `w`: the display hashes `exact` and `structure`
/// and, when `params` (a params fingerprint, raw JSON) is given, the full
/// keys and the params too.  Keys come out sorted, as JsonValue::to_json
/// writes them.
void write_canonical(JsonWriter& w, const CanonicalForm& cf, const std::string* params = nullptr);

}  // namespace hypart::serve
