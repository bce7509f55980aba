// Minimal JSON parser for validating the observability layer's own
// output (bench --json files, Chrome trace exports) in tests and the
// json_check smoke tool.
//
// Full RFC 8259 syntax minus \uXXXX surrogate-pair decoding (escapes are
// preserved literally enough for validation). Not a general-purpose JSON
// library: no serialization (writers hand-roll their output), no DOM
// mutation — parse, inspect, discard.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsp::obs::json {

/// A parsed JSON value. Object member order is preserved.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Walks a dot-separated path of object keys ("registry.counters");
  /// nullptr when any step is missing. Array elements are not addressable.
  const Value* at_path(std::string_view dotted) const;
};

/// Parses `text` into `out`. On failure returns false and, when `error`
/// is non-null, stores a message with the byte offset of the problem.
/// Trailing non-whitespace after the top-level value is an error, and
/// containers nested deeper than 256 levels are rejected (the parser
/// recurses, so unbounded nesting would exhaust the stack).
bool parse(std::string_view text, Value& out, std::string* error = nullptr);

}  // namespace dsp::obs::json

namespace dsp::obs {

/// Appends `s` to `out` with JSON string escaping (no surrounding
/// quotes): ", \ and control characters become their escape sequences.
/// Every hand-rolled JSON writer in the observability layer (metrics,
/// Chrome traces, bench reports) routes string
/// content through this, so names containing quotes/backslashes/control
/// characters always produce valid JSON.
void json_escape_append(std::string& out, std::string_view s);

/// Returns `s` escaped for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace dsp::obs
