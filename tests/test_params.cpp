// The plan parameter table (core/params.hpp): one grammar seen from both
// front doors.  The text form (a CLI flag's value) and the JSON form (a
// serve "params" member) of one value must set the same configuration and
// the same fingerprint, and every bad value must give the same Config
// error from either door, differing only in the "--" / "params." prefix.
#include "core/params.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>

#include "core/error.hpp"

namespace hypart {
namespace {

JsonValue ints(std::initializer_list<std::int64_t> xs) {
  std::vector<JsonValue> out;
  for (std::int64_t x : xs) out.push_back(JsonValue::make_int(x));
  return JsonValue::make_array(std::move(out));
}

/// The Config error message `set` throws, or "" when it throws none.
std::string config_error(const std::function<void(PipelineConfig&)>& set) {
  PipelineConfig config;
  try {
    set(config);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    return e.what();
  }
  return "";
}

TEST(Params, TableHoldsTheEightServeMembers) {
  std::set<std::string> names;
  for (const ParamSpec& p : param_table()) names.insert(p.name);
  EXPECT_EQ(names, (std::set<std::string>{"accounting", "dim", "pi", "space", "tcalc", "tcomm",
                                          "tstart", "weighted"}));
  for (const ParamSpec& p : param_table()) EXPECT_EQ(find_param(p.name), &p);
  // Sorted by name: the fingerprint writes its keys in row order.
  EXPECT_TRUE(std::is_sorted(param_table().begin(), param_table().end(),
                             [](const ParamSpec& a, const ParamSpec& b) {
                               return std::string_view(a.name) < b.name;
                             }));
  EXPECT_EQ(find_param("dimension"), nullptr);
}

TEST(Params, TextAndJsonFormsSetTheSameConfiguration) {
  struct Case {
    const char* name;
    const char* text;
    JsonValue json;
  };
  const std::vector<Case> cases = {
      {"dim", "2", JsonValue::make_int(2)},
      {"space", "verify", JsonValue::make_string("verify")},
      {"accounting", "contention", JsonValue::make_string("contention")},
      {"weighted", "true", JsonValue::make_bool(true)},
      {"tcalc", "2.5", JsonValue::make_double(2.5)},
      {"tstart", "20", JsonValue::make_int(20)},
      {"tcomm", "0", JsonValue::make_double(0)},
      {"pi", "1,-2,3", ints({1, -2, 3})},
  };
  ASSERT_EQ(cases.size(), param_table().size());
  for (const Case& c : cases) {
    PipelineConfig from_text;
    PipelineConfig from_json;
    set_param_text(from_text, "--", c.name, c.text);
    set_param(from_json, "params.", c.name, c.json);
    const ParamSpec& spec = *find_param(c.name);
    EXPECT_EQ(spec.get(from_text).to_json(), spec.get(from_json).to_json()) << c.name;
    EXPECT_NE(spec.get(from_text).to_json(), spec.get(PipelineConfig{}).to_json()) << c.name;
    EXPECT_EQ(params_fingerprint(from_text), params_fingerprint(from_json)) << c.name;
  }

  // The setters reach the fields the pipeline reads.
  PipelineConfig config;
  for (const Case& c : cases) set_param_text(config, "--", c.name, c.text);
  EXPECT_EQ(config.cube_dim, 2u);
  EXPECT_EQ(config.space_mode, SpaceMode::Verify);
  EXPECT_EQ(config.sim.accounting, CommAccounting::LinkContention);
  EXPECT_TRUE(config.mapping.weighted);
  EXPECT_EQ(config.machine.t_calc, 2.5);
  EXPECT_EQ(config.machine.t_start, 20.0);
  EXPECT_EQ(config.machine.t_comm, 0.0);
  EXPECT_EQ(config.time_function, (IntVec{1, -2, 3}));
}

TEST(Params, EnumNamesRoundTrip) {
  for (const char* name : {"dense", "symbolic", "verify"}) {
    PipelineConfig config;
    set_param_text(config, "--", "space", name);
    EXPECT_STREQ(to_string(config.space_mode), name);
  }
  for (const char* name : {"paper", "barrier", "contention"}) {
    PipelineConfig config;
    set_param(config, "params.", "accounting", JsonValue::make_string(name));
    EXPECT_STREQ(to_string(config.sim.accounting), name);
  }
  EXPECT_STREQ(to_string(CommAccounting::PerStepBarrier), "barrier");
}

TEST(Params, FingerprintSpellsEveryDefaultAndPiOnlyWhenExplicit) {
  PipelineConfig config;
  config.space_mode = SpaceMode::Symbolic;
  EXPECT_EQ(params_fingerprint(config),
            "{\"accounting\":\"paper\",\"dim\":3,\"space\":\"symbolic\",\"tcalc\":1,"
            "\"tcomm\":5,\"tstart\":50,\"weighted\":false}");
  // Spelling a default resolves to the same fingerprint as omitting it.
  PipelineConfig spelled = config;
  set_param(spelled, "params.", "dim", JsonValue::make_int(3));
  set_param_text(spelled, "--", "accounting", "paper");
  EXPECT_EQ(params_fingerprint(spelled), params_fingerprint(config));
  set_param_text(spelled, "--", "pi", "1,1");
  EXPECT_EQ(parse_json(params_fingerprint(spelled)).get("pi").to_json(), "[1,1]");
}

TEST(Params, BadValuesGiveOneMessageFromBothDoors) {
  struct Case {
    const char* cls;
    const char* name;
    const char* text;
    JsonValue json;
    const char* message;  ///< after the door's prefix
  };
  const std::vector<Case> cases = {
      {"wrong kind", "dim", "two", JsonValue::make_string("2"),
       "dim must be an integer in [0, 20]"},
      {"wrong kind", "weighted", "yes", JsonValue::make_int(1), "weighted must be a boolean"},
      {"wrong kind", "space", "3", JsonValue::make_int(3),
       "space must be \"dense\", \"symbolic\" or \"verify\""},
      {"out of range", "dim", "21", JsonValue::make_int(21), "dim must be an integer in [0, 20]"},
      {"out of range", "dim", "-1", JsonValue::make_int(-1), "dim must be an integer in [0, 20]"},
      {"out of range", "tcalc", "-5", JsonValue::make_double(-5), "tcalc must be a number >= 0"},
      {"out of range", "accounting", "fifo", JsonValue::make_string("fifo"),
       "accounting must be \"paper\", \"barrier\" or \"contention\""},
      {"trailing bytes", "dim", "2x", JsonValue::make_double(2.5),
       "dim must be an integer in [0, 20]"},
      {"trailing bytes", "tcomm", "1.5e", JsonValue::make_string("1.5e"),
       "tcomm must be a number >= 0"},
      {"empty list element", "pi", "1,1,", JsonValue::make_array({}),
       "pi must be a non-empty list of integers"},
      {"empty list element", "pi", "1,,2",
       JsonValue::make_array({JsonValue::make_int(1), JsonValue::make_null()}),
       "pi must be a non-empty list of integers"},
      {"empty list element", "pi", ",1", JsonValue::make_array({JsonValue::make_double(1.5)}),
       "pi must be a non-empty list of integers"},
      {"unknown name", "dimension", "2", JsonValue::make_int(2), "dimension"},
  };
  for (const Case& c : cases) {
    const std::string text = config_error([&](PipelineConfig& config) {
      set_param_text(config, "--", c.name, c.text);
    });
    const std::string json = config_error([&](PipelineConfig& config) {
      set_param(config, "params.", c.name, c.json);
    });
    const bool unknown = std::string(c.cls) == "unknown name";
    const std::string cli = unknown ? "unknown parameter --" : "--";
    const std::string serve = unknown ? "unknown parameter params." : "params.";
    EXPECT_EQ(text, cli + c.message) << c.cls << ": --" << c.name << " " << c.text;
    EXPECT_EQ(json, serve + c.message) << c.cls << ": params." << c.name << " = "
                                       << c.json.to_json();
  }
}

}  // namespace
}  // namespace hypart
