// hypart — the plan parameter table.  One row per plan parameter drives
// both front doors: the CLI's `--<name> <text>` flags and the members of a
// serve request's "params".  A flag's text is the member's JSON value with
// an enum name unquoted and a list unbracketed (`--pi 1,1` is "pi": [1, 1]),
// and both pass one kind-and-range check: a bad value is Error(Config)
// "<where><name> must be <constraint>", `where` being "--" or "params.".
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/json_reader.hpp"
#include "core/pipeline.hpp"

namespace hypart {

/// One plan parameter: the CLI flag `--<name>` and the serve member `<name>`.
struct ParamSpec {
  enum class Type { Int, Number, Bool, Enum, IntList };
  const char* name;
  Type type;
  double max;                            ///< Int and Number rows accept [0, max]
  std::span<const char* const> choices;  ///< Enum rows: names, indexed by enum value
  const char* help;
  void (*set)(PipelineConfig&, const JsonValue&);  ///< Enum rows get the name's index
  JsonValue (*get)(const PipelineConfig&);         ///< null when unset (pi, searched)
};

[[nodiscard]] std::span<const ParamSpec> param_table();
[[nodiscard]] const ParamSpec* find_param(std::string_view name);
[[nodiscard]] std::string param_constraint(const ParamSpec& spec);  ///< "an integer in [0, 20]"

/// Set parameter `name` from its JSON form (serve) or its text form (CLI).
void set_param(PipelineConfig& config, std::string_view where, std::string_view name,
               const JsonValue& value);
void set_param_text(PipelineConfig& config, std::string_view where, std::string_view name,
                    std::string_view text);

/// The set rows of `config` as one JSON object, keys sorted: serve's
/// document-key fingerprint and `hypart json`'s canonical.params.
[[nodiscard]] std::string params_fingerprint(const PipelineConfig& config);

[[nodiscard]] const char* to_string(CommAccounting accounting);

}  // namespace hypart
