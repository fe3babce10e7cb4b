#include "core/json_reader.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/json_writer.hpp"

namespace hypart {

namespace {

const JsonValue kNullValue{};

[[noreturn]] void type_error(const char* want, JsonValue::Kind got) {
  static const char* names[] = {"null", "bool", "int", "double", "string", "array", "object"};
  throw std::runtime_error(std::string("JsonValue: wanted ") + want + ", holds " +
                           names[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) type_error("bool", kind_);
  return bool_;
}

std::int64_t JsonValue::as_int64() const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ == Kind::Double) return static_cast<std::int64_t>(double_);
  type_error("number", kind_);
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Double) return double_;
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  type_error("number", kind_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) type_error("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::Array) type_error("array", kind_);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::Object) type_error("object", kind_);
  return object_;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::Object) return kNullValue;
  auto it = object_.find(key);
  return it == object_.end() ? kNullValue : it->second;
}

bool JsonValue::has(const std::string& key) const {
  return kind_ == Kind::Object && object_.count(key) > 0;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue& v = get(key);
  return v.is_number() ? v.as_double() : fallback;
}

std::int64_t JsonValue::int_or(const std::string& key, std::int64_t fallback) const {
  const JsonValue& v = get(key);
  return v.is_number() ? v.as_int64() : fallback;
}

std::string JsonValue::string_or(const std::string& key, const std::string& fallback) const {
  const JsonValue& v = get(key);
  return v.is_string() ? v.as_string() : fallback;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::make_int(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::Int;
  v.int_ = i;
  return v;
}
JsonValue JsonValue::make_double(double d) {
  JsonValue v;
  v.kind_ = Kind::Double;
  v.double_ = d;
  return v;
}
JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}
JsonValue JsonValue::make_array(std::vector<JsonValue> a) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.array_ = std::move(a);
  return v;
}
JsonValue JsonValue::make_object(std::map<std::string, JsonValue> o) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.object_ = std::move(o);
  return v;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::Object) {
    *this = make_object({});
  }
  object_[key] = std::move(v);
  return *this;
}

std::vector<JsonValue>& JsonValue::as_array_mut() {
  if (kind_ != Kind::Array) type_error("array", kind_);
  return array_;
}

std::map<std::string, JsonValue>& JsonValue::as_object_mut() {
  if (kind_ != Kind::Object) type_error("object", kind_);
  return object_;
}

JsonValue JsonValue::take(const std::string& key) {
  if (kind_ != Kind::Object) return JsonValue();
  auto it = object_.find(key);
  if (it == object_.end()) return JsonValue();
  JsonValue out = std::move(it->second);
  object_.erase(it);
  return out;
}

namespace {

void write_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: w.raw_value("null"); break;
    case JsonValue::Kind::Bool: w.value(v.as_bool()); break;
    case JsonValue::Kind::Int: w.value(v.as_int64()); break;
    case JsonValue::Kind::Double: w.value(v.as_double()); break;
    case JsonValue::Kind::String: w.value(v.as_string()); break;
    case JsonValue::Kind::Array:
      w.begin_array();
      for (const JsonValue& e : v.as_array()) write_value(w, e);
      w.end_array();
      break;
    case JsonValue::Kind::Object:
      w.begin_object();
      for (const auto& [k, e] : v.as_object()) {
        w.key(k);
        write_value(w, e);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string JsonValue::to_json() const {
  JsonWriter w;
  write_value(w, *this);
  return w.str();
}

void JsonValue::write(JsonWriter& w) const { write_value(w, *this); }

JsonParseError::JsonParseError(std::size_t offset, const std::string& reason)
    : std::runtime_error("JSON parse error at byte " + std::to_string(offset) + ": " + reason),
      offset_(offset) {}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  static constexpr int kMaxDepth = 256;  // bounds recursion on adversarial input

  [[noreturn]] void fail(const std::string& reason) const { throw JsonParseError(pos_, reason); }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    JsonValue v = parse_value_inner();
    --depth_;
    return v;
  }

  JsonValue parse_value_inner() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::map<std::string, JsonValue> obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (static_cast<unsigned char>(c) >= 0x80) {
        append_utf8_sequence(static_cast<unsigned char>(c), out);
        continue;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape character");
      }
    }
  }

  /// Appends the UTF-8 sequence that starts with `lead` (already consumed)
  /// after checking it is well formed (RFC 3629: no overlong forms, no
  /// surrogates, nothing past U+10FFFF).
  void append_utf8_sequence(unsigned char lead, std::string& out) {
    std::size_t more = 0;
    unsigned char lo = 0x80, hi = 0xBF;  // range of the first continuation byte
    if (lead >= 0xC2 && lead <= 0xDF) {
      more = 1;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      more = 2;
      if (lead == 0xE0) lo = 0xA0;
      if (lead == 0xED) hi = 0x9F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      more = 3;
      if (lead == 0xF0) lo = 0x90;
      if (lead == 0xF4) hi = 0x8F;
    } else {
      fail("invalid UTF-8 in string");
    }
    out += static_cast<char>(lead);
    for (std::size_t i = 0; i < more; ++i) {
      if (pos_ >= text_.size()) fail("invalid UTF-8 in string");
      const auto b = static_cast<unsigned char>(text_[pos_++]);
      if (b < (i == 0 ? lo : 0x80) || b > (i == 0 ? hi : 0xBF)) fail("invalid UTF-8 in string");
      out += static_cast<char>(b);
    }
  }

  std::string parse_unicode_escape() {
    auto hex4 = [&]() -> unsigned {
      if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
      unsigned cp = 0;
      for (int i = 0; i < 4; ++i) {
        char c = text_[pos_++];
        cp <<= 4;
        if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
        else fail("invalid hex digit in \\u escape");
      }
      return cp;
    };
    unsigned cp = hex4();
    // Surrogate pair: combine \uD800-\uDBFF with a following low surrogate.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        pos_ += 2;
        unsigned lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail("invalid number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) fail("leading zero in number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!digits()) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) fail("digits required in exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t i = 0;
      auto [p, ec] = std::from_chars(first, last, i);
      if (ec == std::errc() && p == last) return JsonValue::make_int(i);
      // Out-of-int64-range integer: fall through to double.
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || p != last) fail("unparseable number");
    return JsonValue::make_double(d);
  }
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

bool parse_json_file(const std::string& path, JsonValue& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    out = parse_json(ss.str());
  } catch (const JsonParseError& e) {
    error = path + ": " + e.what();
    return false;
  }
  return true;
}

}  // namespace hypart
