#include "analysis/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/executor.hpp"

namespace protest {

std::string JsonWriter::quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::newline() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (!first_in_scope_) out_ += ',';
    newline();
  }
  first_in_scope_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back('o');
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  stack_.pop_back();
  if (!first_in_scope_) newline();
  out_ += '}';
  first_in_scope_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back('a');
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  stack_.pop_back();
  if (!first_in_scope_) newline();
  out_ += ']';
  first_in_scope_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!first_in_scope_) out_ += ',';
  newline();
  first_in_scope_ = false;
  out_ += quote(k);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];
  if (v == std::trunc(v) && std::abs(v) < 1e15) {
    // Integral values print as integers, exactly matching write_uint /
    // write_int output: parsing a writer-produced document (where the
    // parser stores every number as double) and re-writing it must
    // reproduce the original bytes.
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    // Shortest representation that round-trips: try increasing precision.
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
  }
  before_value();
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::write_uint(unsigned long long v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", v);
  before_value();
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::write_int(long long v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", v);
  before_value();
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += quote(v);
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

bool JsonWriter::chunked(std::size_t n, const Executor* exec) const {
  if (stack_.empty() || stack_.back() != 'a')
    throw std::logic_error("JsonWriter::elements: no array is open");
  return n > kElementsPerChunk && exec != nullptr && exec->num_workers() > 1;
}

JsonWriter& JsonWriter::write_chunks(
    std::size_t n, Executor& exec,
    const std::function<void(JsonWriter&, std::size_t)>& elem) {
  const std::size_t num_chunks =
      (n + kElementsPerChunk - 1) / kElementsPerChunk;
  std::vector<std::string> fragments(num_chunks);
  exec.parallel_for(num_chunks, [&](std::size_t c, unsigned /*worker*/) {
    // A fragment starts as a fresh scope at this writer's depth: its first
    // element gets the newline and indent but no comma, which the splice
    // below adds exactly where the serial loop would.
    JsonWriter frag(indent_);
    frag.stack_ = stack_;
    const std::size_t end = std::min(n, (c + 1) * kElementsPerChunk);
    for (std::size_t i = c * kElementsPerChunk; i < end; ++i) elem(frag, i);
    fragments[c] = std::move(frag.out_);
  });
  std::size_t bytes = out_.size();
  for (const std::string& f : fragments) bytes += 1 + f.size();
  out_.reserve(bytes);
  for (const std::string& f : fragments) {
    if (f.empty()) continue;  // every element of the chunk was skipped
    if (!first_in_scope_) out_ += ',';
    out_ += f;
    first_in_scope_ = false;
  }
  return *this;
}

// --- reader -----------------------------------------------------------------

JsonParseError::JsonParseError(const std::string& message, std::size_t offset)
    : std::runtime_error(message + " at offset " + std::to_string(offset)),
      offset_(offset) {}

namespace {

const char* type_name(const JsonValue& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return "bool";
  if (v.is_number()) return "number";
  if (v.is_string()) return "string";
  if (v.is_array()) return "array";
  return "object";
}

[[noreturn]] void type_error(const JsonValue& v, const char* wanted) {
  throw std::runtime_error(std::string("JSON value is ") + type_name(v) +
                           ", expected " + wanted);
}

/// Recursive-descent parser over the whole input.  Depth-capped so
/// `[[[[...` fails with JsonParseError instead of a stack overflow.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c, const char* what) {
    if (!consume(c)) fail(std::string("expected ") + what);
  }

  void expect_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      fail("invalid literal");
    pos_ += word.size();
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't': expect_keyword("true"); return JsonValue(true);
      case 'f': expect_keyword("false"); return JsonValue(false);
      case 'n': expect_keyword("null"); return JsonValue(nullptr);
      default: return JsonValue(parse_number());
    }
  }

  JsonValue parse_object(int depth) {
    expect('{', "'{'");
    JsonValue::Object members;
    skip_ws();
    if (consume('}')) return JsonValue(std::move(members));
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected string key");
      std::string key = parse_string();
      skip_ws();
      expect(':', "':'");
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect('}', "',' or '}'");
      return JsonValue(std::move(members));
    }
  }

  JsonValue parse_array(int depth) {
    expect('[', "'['");
    JsonValue::Array elems;
    skip_ws();
    if (consume(']')) return JsonValue(std::move(elems));
    for (;;) {
      elems.push_back(parse_value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect(']', "',' or ']'");
      return JsonValue(std::move(elems));
    }
  }

  /// Exactly 4 hex digits after a \u.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    pos_ += 4;
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!(consume('\\') && consume('u')))
              fail("unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xdc00 || lo > 0xdfff) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("invalid number");
    if (text_[pos_] == '0') ++pos_;  // no leading zeros
    else while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit required after decimal point");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit required in exponent");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    // The slice is validated, so strtod cannot reject it; a local copy
    // guarantees NUL termination (string_view need not be terminated).
    const std::string slice(text_.substr(start, pos_ - start));
    return std::strtod(slice.c_str(), nullptr);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_error(*this, "bool");
  return std::get<bool>(v_);
}

double JsonValue::as_number() const {
  if (!is_number()) type_error(*this, "number");
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) type_error(*this, "string");
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) type_error(*this, "array");
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) type_error(*this, "object");
  return std::get<Object>(v_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const Member& m : as_object())
    if (m.first == key) return &m.second;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v)
    throw std::runtime_error("missing JSON member '" + std::string(key) + "'");
  return *v;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void write_value(JsonWriter& w, const JsonValue& value) {
  if (value.is_null()) {
    w.null();
  } else if (value.is_bool()) {
    w.value(value.as_bool());
  } else if (value.is_number()) {
    w.value(value.as_number());
  } else if (value.is_string()) {
    w.value(value.as_string());
  } else if (value.is_array()) {
    w.begin_array();
    for (const JsonValue& e : value.as_array()) write_value(w, e);
    w.end_array();
  } else {
    w.begin_object();
    for (const JsonValue::Member& m : value.as_object()) {
      w.key(m.first);
      write_value(w, m.second);
    }
    w.end_object();
  }
}

std::string to_json(const JsonValue& value, int indent) {
  JsonWriter w(indent);
  write_value(w, value);
  return w.str();
}

}  // namespace protest
