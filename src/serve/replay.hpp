// hypart::serve — the pre-rendered reply template of one cached plan.
//
// Every plan quantity is a function of the bounds and the dependence set D
// alone (see serve/canonical.hpp) — only the top-level "loop" member and
// dependences[].array carry requester-visible names — so the pipeline
// document is serialized once, at insert time, with the name spans cut
// out.  A hit then reduces to splicing the requester's escaped names
// between pre-rendered byte chunks: no JsonValue, no re-serialization.
//
// The template is the document's sorted top-level members, each rendered
// as `"key":value` and tagged with the plan ops that report it (the slice
// contract of docs/serve.md, defined once in replay.cpp).  A reply for op
// X is `{`, the members tagged X joined by `,`, and `}`.  Because
// JsonValue stores object members sorted and JsonWriter is compact, that
// projection is byte for byte JsonValue::to_json of the projected
// document, and a reply is byte-identical to a cold plan of the requester
// (apart from the reply's own cache/plan_us fields).
#pragma once

#include <string>
#include <vector>

#include "core/json_reader.hpp"

namespace hypart::serve {

/// Literal byte chunks with name slots in between.  Invariant:
/// chunks.size() == slots.size() + 1.  Slot -1 is the loop name; slot
/// k >= 0 is the array with canonical id k.  Rendering splices
/// already-escaped JSON string literals (JsonWriter::escape) into the gaps.
struct SliceTemplate {
  std::vector<std::string> chunks;
  std::vector<int> slots;

  /// Append the rendered bytes to `out`.  `escaped_loop` and each element
  /// of `escaped_arrays` must be complete JSON string literals (quotes
  /// included); a slot beyond the array renders as null — unreachable when
  /// requester and producer share an exact key, which implies equal
  /// canonical array counts.
  void render(std::string& out, const std::string& escaped_loop,
              const std::vector<std::string>& escaped_arrays) const;
};

/// One cached plan: the pipeline document as name-slotted members.
struct RenderedPlan {
  struct Member {
    SliceTemplate bytes;  ///< `"key":value`
    unsigned ops = 0;     ///< bit set of the plan ops that report this member
  };
  std::vector<Member> members;  ///< in key order

  /// Append op's `result` object to `out` under the requester's names
  /// (`loop_name` and canonical id -> array name).  "explain" — and any op
  /// outside the slice contract — reports every member.
  void render(std::string& out, const std::string& op, const std::string& loop_name,
              const std::vector<std::string>& arrays) const;
};

/// Build the template from a parsed pipeline document.  `arrays` maps
/// canonical id -> producer array name (CanonicalForm::arrays); a
/// dependences[].array value not found in `arrays` stays literal.
RenderedPlan render_plan(const JsonValue& doc, const std::vector<std::string>& arrays);

}  // namespace hypart::serve
