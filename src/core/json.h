// Minimal JSON reader for the repo's own artifacts.
//
// The tooling side (tools/diknn_report.cc) and the export round-trip
// tests need to read back the JSON this repo writes (--metrics-out,
// --ts-out, the Chrome trace). A full JSON library is out of scope for
// the container, so this is a small recursive-descent parser covering
// RFC 8259: objects, arrays, strings (with escapes), numbers, booleans,
// null. Object member order is preserved. It is a *reader* — writing
// stays with the deterministic hand-rolled emitters, whose byte layout
// is part of the bit-identity contract.

#ifndef DIKNN_CORE_JSON_H_
#define DIKNN_CORE_JSON_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace diknn {

/// One parsed JSON value. Plain struct-of-vectors — cheap enough for
/// post-run artifact sizes, no variant gymnastics.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order (duplicate keys keep the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Find() chained through nested objects: Get("a", "b") == a.b.
  template <typename... Keys>
  const JsonValue* Get(const std::string& key, Keys&&... rest) const {
    const JsonValue* v = Find(key);
    if constexpr (sizeof...(rest) == 0) {
      return v;
    } else {
      return v != nullptr ? v->Get(std::forward<Keys>(rest)...) : nullptr;
    }
  }

  double NumberOr(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  std::string StringOr(const std::string& fallback) const {
    return kind == Kind::kString ? string : fallback;
  }

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// garbage rejected). std::nullopt + `error` on malformed input.
  static std::optional<JsonValue> Parse(const std::string& text,
                                        std::string* error = nullptr);
};

}  // namespace diknn

#endif  // DIKNN_CORE_JSON_H_
