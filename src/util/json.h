#pragma once

/// \file json.h
/// Minimal JSON utilities shared by the emitters and the campaign
/// partial-result format: exact, locale-independent number rendering
/// (shortest round-trip via std::to_chars, so serialize -> parse ->
/// serialize is byte-stable) and a small recursive-descent parser.
///
/// The parser accepts standard JSON plus the non-standard number tokens
/// our writer can produce for degenerate statistics ("inf", "-inf",
/// "nan"); it keeps each number's raw token so 64-bit integers (seeds,
/// sample counts) round-trip without passing through a double.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vanet::json {

/// Shortest round-trip rendering of `value` (std::to_chars): parsing the
/// text back yields the identical bit pattern, and equal bits render to
/// equal bytes. Never consults the locale.
std::string num(double value);

/// `text` as a JSON string literal (quotes, backslashes, newlines and
/// control characters escaped).
std::string quote(const std::string& text);

/// A parsed JSON value. Numbers keep both the converted double and the
/// raw token (for exact 64-bit integer recovery).
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type() const noexcept { return type_; }
  bool isNull() const noexcept { return type_ == Type::Null; }

  /// Typed accessors throw std::runtime_error on a type mismatch, so a
  /// malformed partial file fails loudly instead of reading zeros.
  bool asBool() const;
  double asDouble() const;
  std::uint64_t asUInt64() const;  ///< exact; parses the raw token
  std::int64_t asInt64() const;    ///< exact; parses the raw token
  const std::string& asString() const;
  const std::vector<Value>& asArray() const;
  const std::vector<std::pair<std::string, Value>>& asObject() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;

  /// Object member that must exist; throws std::runtime_error otherwise.
  const Value& at(const std::string& key) const;

 private:
  friend Value parse(const std::string&);
  friend class Parser;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string raw_;     ///< number token or string payload
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Deepest array/object nesting parse() accepts. Committed specs and
/// manifests nest fewer than ten levels; the limit
/// keeps hostile input from exhausting the stack of the recursive
/// parser.
inline constexpr int kMaxNestingDepth = 512;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws std::runtime_error with a byte offset on
/// malformed input, including nesting deeper than kMaxNestingDepth.
Value parse(const std::string& text);

}  // namespace vanet::json
