// Minimal JSON layer — no external dependency.
//
// JsonWriter: streaming writer used by the session API's
// AnalysisResult::to_json, the CLI's --json output, and the service
// protocol.  Handles nesting, comma placement, indentation, string
// escaping (every control character < 0x20), and shortest-round-trip
// double formatting (non-finite doubles emit null).  elements() writes a
// long array in fixed chunks across an executor and splices them into
// the bytes the serial loop writes.
//
// JsonValue / parse_json: a small recursive-descent reader producing an
// ordered document tree — the decode side of the service wire format.
// Strict JSON (RFC 8259): no comments, no trailing commas, \u escapes
// including surrogate pairs.  Numbers are stored as double (integers are
// exact up to 2^53, which covers every id/counter the protocol carries).
// Malformed input throws JsonParseError with the byte offset — never
// crashes — and nesting is capped so adversarial depth bombs fail cleanly
// instead of overflowing the stack.  write_value() re-serializes a tree
// through JsonWriter; because the writer's double format round-trips,
// parse -> write of writer-produced JSON is byte-identical.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace protest {

class Executor;

class JsonWriter {
 public:
  /// Array elements per elements() chunk.  alu's largest array (536
  /// faults) stays one chunk, so it never reaches the executor; a chunk
  /// of 1,024 entries holding one or two doubles each takes ~7-14 ms to
  /// format, against tens of microseconds to hand a task to a worker, so
  /// the per-job overhead stays under 1%.  (The same trade as
  /// kFaultsPerTask in lint/fault_analyze.cpp.)
  static constexpr std::size_t kElementsPerChunk = 1024;

  /// indent = spaces per nesting level; 0 writes compact one-line JSON.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// Any integer type (size_t, NodeId, int, ...) without overload
  /// ambiguity across platforms' differing typedef identities.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    if constexpr (std::is_signed_v<T>)
      return write_int(static_cast<long long>(v));
    else
      return write_uint(static_cast<unsigned long long>(v));
  }
  JsonWriter& null();

  /// Splices `json` — a complete, pre-serialized JSON value — in value
  /// position, byte for byte.  This is how the service protocol embeds an
  /// AnalysisResult::to_json payload without re-encoding it (the daemon's
  /// byte-identical-artifact guarantee).  The caller vouches for validity.
  JsonWriter& raw(std::string_view json);

  /// Writes elements [0, n) of the array just opened or being filled:
  /// `elem(w, i)` writes element i through `w`, as complete values (or
  /// nothing, to skip i).  When n spans more than one chunk and `exec` has
  /// more than one worker, the chunks are written on exec->parallel_for,
  /// each into a fragment at this writer's indent and depth, and spliced
  /// in index order with the commas the serial loop writes.  `elem` must
  /// then be safe to call concurrently, and element i's bytes must depend
  /// on i alone; the document is byte-identical for every worker count.
  /// Otherwise (one chunk, null `exec`, one worker) this is that serial
  /// loop, with no allocation and no executor call.
  template <typename Elem>
  JsonWriter& elements(std::size_t n, Executor* exec, Elem&& elem) {
    if (!chunked(n, exec)) {
      for (std::size_t i = 0; i < n; ++i) elem(*this, i);
      return *this;
    }
    return write_chunks(n, *exec, std::ref(elem));
  }

  /// The document written so far (complete once all containers are closed).
  const std::string& str() const { return out_; }

  /// "text" with JSON escapes, including the surrounding quotes.
  static std::string quote(std::string_view text);

 private:
  JsonWriter& write_int(long long v);
  JsonWriter& write_uint(unsigned long long v);
  void before_value();
  void newline();
  /// Throws std::logic_error unless an array is open; true when
  /// elements() writes chunks on `exec`.
  bool chunked(std::size_t n, const Executor* exec) const;
  JsonWriter& write_chunks(
      std::size_t n, Executor& exec,
      const std::function<void(JsonWriter&, std::size_t)>& elem);

  std::string out_;
  int indent_;
  std::vector<char> stack_;      ///< 'o' = object, 'a' = array
  bool first_in_scope_ = true;   ///< no comma needed yet in current scope
  bool after_key_ = false;       ///< next value completes a key
};

// --- reader -----------------------------------------------------------------

/// Parse failure: `what()` describes the problem, `offset` is the byte
/// position in the input where it was detected.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset);
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One parsed JSON value.  Objects preserve member order (so writer ->
/// parser -> writer round-trips exactly) and allow duplicate keys
/// (lookups return the first).  Typed accessors throw std::runtime_error
/// naming the expected and actual type — protocol decoding surfaces these
/// as structured "bad_request" errors instead of crashing.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// First member named `key`, or nullptr when absent.  Throws when this
  /// value is not an object.
  const JsonValue* find(std::string_view key) const;
  /// Like find(), but a missing member throws std::runtime_error.
  const JsonValue& at(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses exactly one JSON document (trailing non-whitespace is an
/// error).  Throws JsonParseError on malformed input.
JsonValue parse_json(std::string_view text);

/// Writes `value` (recursively) in value position.
void write_value(JsonWriter& w, const JsonValue& value);

/// The whole tree as a document; indent = 0 for compact (NDJSON) form.
std::string to_json(const JsonValue& value, int indent = 0);

}  // namespace protest
