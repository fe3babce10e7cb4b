// hypart JSON parser tests: RFC 8259 conformance of the subset hypart
// writes, error reporting, the writer/reader double round-trip (shortest
// to_chars form must re-parse to the identical bits), and the locale
// regression — numeric formatting/parsing must not bend to a comma-decimal
// global locale like de_DE.
#include "core/json_reader.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <limits>
#include <locale>
#include <string>

#include "core/json_writer.hpp"

namespace {

using hypart::JsonParseError;
using hypart::JsonValue;
using hypart::JsonWriter;
using hypart::parse_json;

TEST(JsonReaderTest, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("42").as_int64(), 42);
  EXPECT_EQ(parse_json("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(parse_json("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_json("-2e3").as_double(), -2000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonReaderTest, IntegersStayIntegers) {
  EXPECT_EQ(parse_json("9223372036854775807").kind(), JsonValue::Kind::Int);
  EXPECT_EQ(parse_json("9223372036854775807").as_int64(),
            std::numeric_limits<std::int64_t>::max());
  // Fractional or exponent forms become doubles; int64 still reads them.
  EXPECT_EQ(parse_json("2.0").kind(), JsonValue::Kind::Double);
  EXPECT_EQ(parse_json("2.0").as_int64(), 2);
}

TEST(JsonReaderTest, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t\r\f\b")").as_string(), "a\"b\\c/d\n\t\r\f\b");
  EXPECT_EQ(parse_json(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonReaderTest, ArraysAndObjects) {
  JsonValue v = parse_json(R"({"a":[1,2,3],"b":{"nested":true},"c":null})");
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v.get("a").is_array());
  EXPECT_EQ(v.get("a").as_array().size(), 3u);
  EXPECT_EQ(v.get("a").as_array()[2].as_int64(), 3);
  EXPECT_TRUE(v.get("b").get("nested").as_bool());
  EXPECT_TRUE(v.get("c").is_null());
  EXPECT_TRUE(v.has("c"));
  EXPECT_FALSE(v.has("d"));
  EXPECT_TRUE(v.get("d").is_null());  // missing-key sentinel
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.5), 9.5);
  EXPECT_EQ(v.int_or("missing", 3), 3);
  EXPECT_EQ(v.string_or("missing", "dflt"), "dflt");
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "01", "1.",
                          "\"unterminated", "\"bad\\q\"", "[1] trailing", "{\"a\" 1}",
                          "[1 2]", "nan", "+1", "\"\\ud83d\""}) {
    EXPECT_THROW((void)parse_json(bad), JsonParseError) << bad;
  }
}

TEST(JsonReaderTest, RawUtf8MustBeWellFormed) {
  // Well-formed multi-byte sequences pass through unchanged.
  for (const char* ok : {"\"\xc3\xa9\"", "\"\xe2\x82\xac\"", "\"\xf0\x9f\x98\x80\"",
                         "\"\xed\x9f\xbf\"", "\"\xf4\x8f\xbf\xbf\""}) {
    const std::string text(ok);
    EXPECT_EQ(parse_json(text).as_string(), text.substr(1, text.size() - 2)) << text;
  }
  // Stray continuation bytes, invalid leads, truncated, overlong and
  // surrogate forms, and code points past U+10FFFF are parse errors.
  for (const char* bad : {"\"\xff\xfe\"", "\"\x80\"", "\"\xc3\"", "\"\xc0\xaf\"",
                          "\"\xe0\x80\xaf\"", "\"\xed\xa0\x80\"", "\"\xf0\x8f\xbf\xbf\"",
                          "\"\xf4\x90\x80\x80\"", "\"\xe2\x82\"", "\"\xc3\x28\"",
                          "{\"id\":\"\xff\xfe\"}"}) {
    EXPECT_THROW((void)parse_json(bad), JsonParseError) << bad;
  }
}

TEST(JsonReaderTest, ParseErrorCarriesOffset) {
  try {
    (void)parse_json("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos);
  }
}

TEST(JsonReaderTest, TypeMismatchThrows) {
  EXPECT_THROW((void)parse_json("1").as_string(), std::runtime_error);
  EXPECT_THROW((void)parse_json("\"s\"").as_double(), std::runtime_error);
  EXPECT_THROW((void)parse_json("[]").as_object(), std::runtime_error);
}

TEST(JsonReaderTest, FileHelperReportsErrorsWithoutThrowing) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(hypart::parse_json_file("/nonexistent/hypart.json", out, error));
  EXPECT_FALSE(error.empty());

  std::string path = testing::TempDir() + "hypart_reader_ok.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"x\": 3}", f);
    std::fclose(f);
  }
  error.clear();
  ASSERT_TRUE(hypart::parse_json_file(path, out, error)) << error;
  EXPECT_EQ(out.get("x").as_int64(), 3);
  std::remove(path.c_str());
}

TEST(JsonReaderTest, EveryPrefixTruncationIsRejectedNotCrashed) {
  // Robustness fuzz: a partially written artifact (crashed producer, torn
  // copy) is a strict prefix of a valid document.  Every such prefix must
  // raise JsonParseError — never crash, hang, or parse successfully.
  JsonWriter w;
  w.begin_object();
  w.field("name", "tr\"icky\\\n");
  w.field("int", std::int64_t{-12345});
  w.field("dbl", 6.02214076e23);
  w.begin_array("arr");
  w.value(true);
  w.raw_value("null");
  w.end_array();
  w.end_object();
  const std::string doc = w.str();
  ASSERT_NO_THROW((void)parse_json(doc));
  for (std::size_t cut = 0; cut < doc.size(); ++cut) {
    EXPECT_THROW((void)parse_json(doc.substr(0, cut)), JsonParseError)
        << "prefix of " << cut << " byte(s) parsed: " << doc.substr(0, cut);
  }
}

TEST(JsonReaderTest, MidTokenEofIsRejected) {
  // EOF landing inside a token (not just between tokens) — each of these
  // ends mid-literal, mid-number, mid-escape, or mid-string.
  for (const char* bad :
       {"tr", "fals", "nul", "-", "1e", "1e+", "1.5e-", "\"abc", "\"abc\\", "\"abc\\u",
        "\"abc\\u00", "\"\\ud83d\\ud", "[", "[1", "[1,", "{\"a", "{\"a\"", "{\"a\":",
        "{\"a\":1,", "{\"a\":[{\"b\":"}) {
    EXPECT_THROW((void)parse_json(bad), JsonParseError) << bad;
  }
}

TEST(JsonRoundTripTest, DoublesSurviveWriterReaderExactly) {
  // Shortest-round-trip formatting (to_chars) must re-parse (from_chars)
  // to the identical bit pattern — this is what makes the ledger and the
  // bench baselines diffable at --tolerance 0.
  const double cases[] = {0.0,   1.0,  -1.0,      0.1,       1.0 / 3.0,  6.02214076e23,
                          1e-30, 1e30, 123.456e7, 0.3333333, 2.00000001, 5e-324};
  for (double d : cases) {
    JsonWriter w;
    w.begin_object();
    w.field("v", d);
    w.end_object();
    JsonValue v = parse_json(w.str());
    EXPECT_EQ(v.get("v").as_double(), d) << w.str();
  }
}

TEST(JsonLocaleTest, FormattingIgnoresCommaDecimalLocale) {
  // With a comma-decimal global locale active, printf-family formatting
  // would emit "1,5" — invalid JSON.  to_chars/from_chars are immune; this
  // pins that the writer and reader both stay on that path.
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"};
  std::string previous = std::setlocale(LC_ALL, nullptr);
  const char* applied = nullptr;
  for (const char* cand : candidates)
    if (std::setlocale(LC_ALL, cand) != nullptr) {
      applied = cand;
      break;
    }
  if (applied == nullptr) GTEST_SKIP() << "no comma-decimal locale installed";
  // Sanity: the locale really uses ',' as the decimal separator.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", 1.5);
  const bool comma_locale = std::string(buf).find(',') != std::string::npos;

  JsonWriter w;
  w.begin_object();
  w.field("v", 1.5);
  w.end_object();
  std::string json = w.str();
  JsonValue parsed_ok = parse_json("{\"v\": 1.5}");

  std::setlocale(LC_ALL, previous.c_str());

  if (comma_locale) {
    EXPECT_NE(json.find("1.5"), std::string::npos) << json;
    EXPECT_EQ(json.find(','), std::string::npos) << json;
  }
  EXPECT_DOUBLE_EQ(parsed_ok.get("v").as_double(), 1.5);
}

TEST(JsonReaderTest, RejectsTrailingBytesAfterCompleteValue) {
  // The plan daemon (docs/serve.md) frames its wire protocol as one JSON
  // value per newline-terminated line and parses each stripped line with
  // parse_json.  That framing is only sound if the parser rejects *any*
  // non-whitespace byte after the first complete top-level value — a second
  // concatenated document, a stray delimiter, an embedded NUL — instead of
  // silently ignoring it (a smuggled second request).  This regression
  // test pins that contract for every value kind.
  for (const char* bad : {
           "{\"a\":1}{\"b\":2}",  // two concatenated objects
           "[1,2][3]",            // two concatenated arrays
           "1 2",                 // two numbers, whitespace-separated
           "42x",                 // number with suffix bytes
           "true false",          // two literals
           "null{}",              // literal then object
           "\"a\" \"b\"",         // two strings
           "[1],",                // stray delimiter after value
           "{}]",                 // stray closer after value
       }) {
    EXPECT_THROW((void)parse_json(bad), JsonParseError) << bad;
  }
  // Embedded NUL is not JSON whitespace: trailing "\0" bytes (a torn
  // fixed-size buffer) must be rejected, before or after the value.
  std::string nul_after = "42";
  nul_after += '\0';
  EXPECT_THROW((void)parse_json(nul_after), JsonParseError);
  std::string nul_between = "[1]";
  nul_between += '\0';
  nul_between += "[2]";
  EXPECT_THROW((void)parse_json(nul_between), JsonParseError);
  // Trailing RFC 8259 whitespace (and nothing else) stays legal — the
  // daemon strips the line terminator but tolerates "  {...}  \r".
  EXPECT_EQ(parse_json("42 \t\r\n").as_int64(), 42);
}

TEST(JsonReaderTest, ToJsonIsAFixedPointUnderReparse) {
  // The plan cache stores parsed documents and replays them with
  // JsonValue::to_json(); a cached reply must serialize to the same bytes
  // every time, including doubles (shortest to_chars form re-parses to the
  // identical bits, possibly as Kind::Int — the *bytes* must not drift).
  const std::string src =
      R"({"a":[1,2.5,-3],"b":{"s":"x\ny","t":true,"u":null},"n":9007199254740993,"d":0.1})";
  JsonValue v1 = parse_json(src);
  std::string s1 = v1.to_json();
  JsonValue v2 = parse_json(s1);
  std::string s2 = v2.to_json();
  EXPECT_EQ(s1, s2);
  std::string s3 = parse_json(s2).to_json();
  EXPECT_EQ(s2, s3);
  // Spot-check the content survived.
  EXPECT_EQ(v2.get("a").as_array()[1].as_double(), 2.5);
  EXPECT_EQ(v2.get("b").get("s").as_string(), "x\ny");
  EXPECT_TRUE(v2.get("b").get("u").is_null());
}

TEST(JsonReaderTest, SetBuildsAndOverwritesObjectMembers) {
  JsonValue v;  // starts as null
  v.set("x", JsonValue::make_int(1));
  v.set("y", JsonValue::make_string("s"));
  v.set("x", JsonValue::make_int(2));  // overwrite
  EXPECT_EQ(v.get("x").as_int64(), 2);
  EXPECT_EQ(v.get("y").as_string(), "s");
  EXPECT_EQ(v.to_json(), R"({"x":2,"y":"s"})");
}

TEST(JsonReaderTest, BorrowAccessorsEditInPlace) {
  JsonValue v = parse_json(R"({"deps":[{"array":"A"},{"array":"A"}],"loop":"n"})");
  // In-place rewrite through the mutable borrows: no copy-edit-reinsert.
  for (JsonValue& dep : v.as_object_mut().at("deps").as_array_mut())
    dep.as_object_mut().at("array") = JsonValue::make_string("B");
  v.as_object_mut().at("loop") = JsonValue::make_string("m");
  EXPECT_EQ(v.to_json(), R"({"deps":[{"array":"B"},{"array":"B"}],"loop":"m"})");
  // Kind contract matches the const accessors.
  JsonValue str = JsonValue::make_string("m");
  JsonValue arr = JsonValue::make_array({});
  EXPECT_THROW((void)str.as_array_mut(), std::runtime_error);
  EXPECT_THROW((void)arr.as_object_mut(), std::runtime_error);
}

TEST(JsonReaderTest, TakeMovesMembersOutOfAnObject) {
  JsonValue v = parse_json(R"({"big":[1,2,3],"keep":true})");
  JsonValue big = v.take("big");
  EXPECT_EQ(big.to_json(), "[1,2,3]");
  // The member is gone from the source; other members survive.
  EXPECT_FALSE(v.has("big"));
  EXPECT_TRUE(v.get("keep").as_bool());
  // Missing member / non-object receiver degrade to null, not a throw:
  // callers slice optional document keys without probing first.
  EXPECT_TRUE(v.take("big").is_null());
  JsonValue i = JsonValue::make_int(7);
  EXPECT_TRUE(i.take("x").is_null());
}

TEST(JsonReaderTest, WriteStreamsIntoAnExistingWriter) {
  JsonValue v = parse_json(R"({"a":[1,{"b":"x\ny"}],"d":2.5})");
  JsonWriter w;
  w.begin_object();
  w.key("wrapped");
  v.write(w);
  w.field("tail", std::int64_t{1});
  w.end_object();
  // Splicing through write() produces the same bytes as to_json() pasted
  // into the enclosing document.
  EXPECT_EQ(w.str(), std::string(R"({"wrapped":)") + v.to_json() + R"(,"tail":1})");
}

}  // namespace
