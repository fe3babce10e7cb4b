#include "core/params.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "core/json_writer.hpp"

namespace hypart {

namespace {

using Type = ParamSpec::Type;
using Config = PipelineConfig;
using Json = JsonValue;

constexpr double kNoMax = std::numeric_limits<double>::infinity();
constexpr const char* kSpaceNames[] = {"dense", "symbolic", "verify"};
constexpr const char* kAccountingNames[] = {"paper", "barrier", "contention"};

// Sorted by name, so the fingerprint lists its keys in JSON-sorted order.
const ParamSpec kParams[] = {
    {"accounting", Type::Enum, 0, kAccountingNames, "simulator cost convention",
     [](Config& c, const Json& v) { c.sim.accounting = static_cast<CommAccounting>(v.as_int64()); },
     [](const Config& c) { return Json::make_string(to_string(c.sim.accounting)); }},
    {"dim", Type::Int, kMaxCubeDim, {}, "hypercube dimension n (2^n processors)",
     [](Config& c, const Json& v) { c.cube_dim = static_cast<unsigned>(v.as_int64()); },
     [](const Config& c) { return Json::make_int(c.cube_dim); }},
    {"pi", Type::IntList, 0, {}, "pin the time function Pi instead of searching",
     [](Config& c, const Json& v) {
       c.time_function.emplace();
       for (const Json& x : v.as_array()) c.time_function->push_back(x.as_int64());
     },
     [](const Config& c) {
       if (!c.time_function) return Json();
       std::vector<Json> pi;
       for (std::int64_t x : *c.time_function) pi.push_back(Json::make_int(x));
       return Json::make_array(std::move(pi));
     }},
    {"space", Type::Enum, 0, kSpaceNames, "iteration-space backend",
     [](Config& c, const Json& v) { c.space_mode = static_cast<SpaceMode>(v.as_int64()); },
     [](const Config& c) { return Json::make_string(to_string(c.space_mode)); }},
    {"tcalc", Type::Number, kNoMax, {}, "machine constant t_calc, time per flop",
     [](Config& c, const Json& v) { c.machine.t_calc = v.as_double(); },
     [](const Config& c) { return Json::make_double(c.machine.t_calc); }},
    {"tcomm", Type::Number, kNoMax, {}, "machine constant t_comm, time per word sent",
     [](Config& c, const Json& v) { c.machine.t_comm = v.as_double(); },
     [](const Config& c) { return Json::make_double(c.machine.t_comm); }},
    {"tstart", Type::Number, kNoMax, {}, "machine constant t_start, message start-up time",
     [](Config& c, const Json& v) { c.machine.t_start = v.as_double(); },
     [](const Config& c) { return Json::make_double(c.machine.t_start); }},
    {"weighted", Type::Bool, 0, {}, "split clusters at the compute-weighted median",
     [](Config& c, const Json& v) { c.mapping.weighted = v.as_bool(); },
     [](const Config& c) { return Json::make_bool(c.mapping.weighted); }},
};

const ParamSpec& lookup(std::string_view where, std::string_view name) {
  if (const ParamSpec* spec = find_param(name)) return *spec;
  throw Error(ErrorKind::Config, "unknown parameter " + std::string(where) + std::string(name));
}

/// Check `v` against the row's JSON kind and range, then store it.
void store(const ParamSpec& spec, std::string_view where, const Json& v, Config& config) {
  const bool in_range = v.is_number() && v.as_double() >= 0 && v.as_double() <= spec.max;
  const auto choice = v.is_string()
                          ? std::find(spec.choices.begin(), spec.choices.end(), v.as_string())
                          : spec.choices.end();
  bool ok = false;
  switch (spec.type) {
    case Type::Int: ok = v.kind() == Json::Kind::Int && in_range; break;
    case Type::Number: ok = in_range; break;
    case Type::Bool: ok = v.kind() == Json::Kind::Bool; break;
    case Type::Enum: ok = choice != spec.choices.end(); break;
    case Type::IntList:
      ok = v.is_array() && !v.as_array().empty() &&
           std::all_of(v.as_array().begin(), v.as_array().end(),
                       [](const Json& x) { return x.kind() == Json::Kind::Int; });
      break;
  }
  if (!ok)
    throw Error(ErrorKind::Config,
                std::string(where) + spec.name + " must be " + param_constraint(spec));
  if (spec.type != Type::Enum) return spec.set(config, v);
  spec.set(config, Json::make_int(choice - spec.choices.begin()));
}

}  // namespace

std::span<const ParamSpec> param_table() { return kParams; }

const ParamSpec* find_param(std::string_view name) {
  for (const ParamSpec& spec : kParams)
    if (name == spec.name) return &spec;
  return nullptr;
}

std::string param_constraint(const ParamSpec& spec) {
  const std::string range =
      spec.max == kNoMax ? " >= 0" : " in [0, " + std::to_string(static_cast<int>(spec.max)) + "]";
  std::string names;
  for (std::size_t i = 0; i < spec.choices.size(); ++i)
    names += (i == 0 ? "\"" : i + 1 < spec.choices.size() ? ", \"" : " or \"") +
             std::string(spec.choices[i]) + "\"";
  switch (spec.type) {
    case Type::Int: return "an integer" + range;
    case Type::Number: return "a number" + range;
    case Type::Bool: return "a boolean";
    case Type::Enum: return names;
    case Type::IntList: return "a non-empty list of integers";
  }
  return "";
}

void set_param(Config& config, std::string_view where, std::string_view name, const Json& value) {
  store(lookup(where, name), where, value, config);
}

void set_param_text(Config& config, std::string_view where, std::string_view name,
                    std::string_view text) {
  const ParamSpec& spec = lookup(where, name);
  const std::string json = spec.type == Type::IntList ? "[" + std::string(text) + "]"
                                                      : std::string(text);
  Json value;  // stays null, which no row accepts, when the text is not JSON
  try {
    value = spec.type == Type::Enum ? Json::make_string(json) : parse_json(json);
  } catch (const JsonParseError&) {
  }
  store(spec, where, value, config);
}

std::string params_fingerprint(const Config& config) {
  JsonWriter w;
  w.begin_object();
  for (const ParamSpec& spec : kParams)
    if (Json v = spec.get(config); !v.is_null()) v.write(w.key(spec.name));
  w.end_object();
  return w.str();
}

const char* to_string(SpaceMode mode) { return kSpaceNames[static_cast<std::size_t>(mode)]; }

const char* to_string(CommAccounting accounting) {
  return kAccountingNames[static_cast<std::size_t>(accounting)];
}

}  // namespace hypart
