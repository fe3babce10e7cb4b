#include "serve/replay.hpp"

#include <cstddef>
#include <map>

#include "core/json_writer.hpp"

namespace hypart::serve {

namespace {

constexpr unsigned kPartition = 1u;
constexpr unsigned kMap = 2u;
constexpr unsigned kPredict = 4u;
constexpr unsigned kExplain = 8u;

unsigned op_bit(const std::string& op) {
  if (op == "partition") return kPartition;
  if (op == "map") return kMap;
  if (op == "predict") return kPredict;
  return kExplain;
}

/// The slice contract (docs/serve.md): the identity/schedule header plus
/// the sections each op is about.  explain reports every member.
unsigned ops_reporting(const std::string& key) {
  static const std::map<std::string, unsigned> kSlices = {
      {"loop", kPartition | kMap | kPredict},
      {"depth", kPartition | kMap | kPredict},
      {"space_mode", kPartition | kMap | kPredict},
      {"time_function", kPartition | kMap | kPredict},
      {"iterations", kPartition | kPredict},
      {"steps", kPartition | kPredict},
      {"dependences", kPartition},
      {"validation", kPartition},
      {"partition", kPartition | kMap},
      {"mapping", kMap},
      {"simulation", kPredict},
  };
  auto it = kSlices.find(key);
  return kExplain | (it == kSlices.end() ? 0u : it->second);
}

/// Serialize one top-level member as `"key":value`, cutting a slot
/// wherever a name-bearing string value occurs.
SliceTemplate build_member(const std::string& key, const JsonValue& value,
                           const std::map<std::string, int>& array_slot) {
  JsonWriter w;
  std::vector<std::size_t> cuts;
  std::vector<int> slots;
  auto cut = [&](int slot) {
    (void)w.raw_buffer();  // comma bookkeeping for the name spliced at render time
    cuts.push_back(w.size());
    slots.push_back(slot);
  };

  w.key(key);
  if (key == "loop" && value.is_string()) {
    cut(-1);
  } else if (key == "dependences" && value.is_array()) {
    w.begin_array();
    for (const JsonValue& dep : value.as_array()) {
      if (!dep.is_object()) {
        dep.write(w);
        continue;
      }
      w.begin_object();
      for (const auto& [dk, dv] : dep.as_object()) {
        w.key(dk);
        auto it = dv.is_string() && dk == "array" ? array_slot.find(dv.as_string())
                                                  : array_slot.end();
        if (it != array_slot.end()) cut(it->second);
        else dv.write(w);
      }
      w.end_object();
    }
    w.end_array();
  } else {
    value.write(w);
  }

  SliceTemplate t;
  const std::string text = w.str();
  t.chunks.reserve(cuts.size() + 1);
  std::size_t prev = 0;
  for (std::size_t c : cuts) {
    t.chunks.push_back(text.substr(prev, c - prev));
    prev = c;
  }
  t.chunks.push_back(text.substr(prev));
  t.slots = std::move(slots);
  return t;
}

/// The already-escaped literal spliced into `slot`.
const std::string& slot_text(int slot, const std::string& escaped_loop,
                             const std::vector<std::string>& escaped_arrays) {
  static const std::string kNull = "null";
  if (slot < 0) return escaped_loop;
  if (static_cast<std::size_t>(slot) < escaped_arrays.size())
    return escaped_arrays[static_cast<std::size_t>(slot)];
  return kNull;
}

}  // namespace

void SliceTemplate::render(std::string& out, const std::string& escaped_loop,
                           const std::vector<std::string>& escaped_arrays) const {
  out += chunks[0];
  for (std::size_t i = 0; i < slots.size(); ++i) {
    out += slot_text(slots[i], escaped_loop, escaped_arrays);
    out += chunks[i + 1];
  }
}

void RenderedPlan::render(std::string& out, const std::string& op, const std::string& loop_name,
                          const std::vector<std::string>& arrays) const {
  const std::string escaped_loop = JsonWriter::escape(loop_name);
  std::vector<std::string> escaped_arrays;
  escaped_arrays.reserve(arrays.size());
  for (const std::string& a : arrays) escaped_arrays.push_back(JsonWriter::escape(a));

  // Size the reply once: the braces, then each kept member and a comma.
  const unsigned bit = op_bit(op);
  std::size_t total = 2;
  for (const Member& m : members) {
    if ((m.ops & bit) == 0) continue;
    total += 1;
    for (const std::string& c : m.bytes.chunks) total += c.size();
    for (int slot : m.bytes.slots) total += slot_text(slot, escaped_loop, escaped_arrays).size();
  }
  out.reserve(out.size() + total);

  out += '{';
  bool first = true;
  for (const Member& m : members) {
    if ((m.ops & bit) == 0) continue;
    if (!first) out += ',';
    first = false;
    m.bytes.render(out, escaped_loop, escaped_arrays);
  }
  out += '}';
}

RenderedPlan render_plan(const JsonValue& doc, const std::vector<std::string>& arrays) {
  std::map<std::string, int> array_slot;
  for (std::size_t k = 0; k < arrays.size(); ++k)
    array_slot.emplace(arrays[k], static_cast<int>(k));

  RenderedPlan r;
  for (const auto& [key, value] : doc.as_object())
    r.members.push_back({build_member(key, value, array_slot), ops_reporting(key)});
  return r;
}

}  // namespace hypart::serve
