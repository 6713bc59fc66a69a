#include "util/json.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace vanet::json {

std::string num(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("nan");
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

[[noreturn]] void typeError(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}

}  // namespace

bool Value::asBool() const {
  if (type_ != Type::Bool) typeError("a bool");
  return bool_;
}

double Value::asDouble() const {
  if (type_ != Type::Number) typeError("a number");
  return number_;
}

std::uint64_t Value::asUInt64() const {
  if (type_ != Type::Number) typeError("a number");
  std::uint64_t v = 0;
  const char* first = raw_.data();
  const char* last = raw_.data() + raw_.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) typeError("an unsigned integer");
  return v;
}

std::int64_t Value::asInt64() const {
  if (type_ != Type::Number) typeError("a number");
  std::int64_t v = 0;
  const char* first = raw_.data();
  const char* last = raw_.data() + raw_.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) typeError("an integer");
  return v;
}

const std::string& Value::asString() const {
  if (type_ != Type::String) typeError("a string");
  return raw_;
}

const std::vector<Value>& Value::asArray() const {
  if (type_ != Type::Array) typeError("an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::asObject() const {
  if (type_ != Type::Object) typeError("an object");
  return object_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key \"" + key + "\"");
  }
  return *v;
}

/// Recursive-descent parser over a string view of the document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value document() {
    Value v = value();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeWord(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value value() {
    skipSpace();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth) {
          fail("nesting deeper than " + std::to_string(kMaxNestingDepth));
        }
        ++depth_;
        Value v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return string();
      case 't':
      case 'f': {
        Value v;
        v.type_ = Value::Type::Bool;
        if (consumeWord("true")) {
          v.bool_ = true;
        } else if (consumeWord("false")) {
          v.bool_ = false;
        } else {
          fail("invalid literal");
        }
        return v;
      }
      default:
        if (consumeWord("null")) return Value();
        return number();
    }
  }

  Value string() {
    expect('"');
    Value v;
    v.type_ = Value::Type::String;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        v.raw_ += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          v.raw_ += '"';
          break;
        case '\\':
          v.raw_ += '\\';
          break;
        case '/':
          v.raw_ += '/';
          break;
        case 'n':
          v.raw_ += '\n';
          break;
        case 't':
          v.raw_ += '\t';
          break;
        case 'r':
          v.raw_ += '\r';
          break;
        case 'b':
          v.raw_ += '\b';
          break;
        case 'f':
          v.raw_ += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // The writer only escapes control characters; decode the
          // basic-multilingual-plane code point as UTF-8.
          if (code < 0x80) {
            v.raw_ += static_cast<char>(code);
          } else if (code < 0x800) {
            v.raw_ += static_cast<char>(0xC0 | (code >> 6));
            v.raw_ += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            v.raw_ += static_cast<char>(0xE0 | (code >> 12));
            v.raw_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            v.raw_ += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
      }
    }
    return v;
  }

  Value number() {
    // Token: everything a decimal double, "inf"/"-inf" or "nan" can use.
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool tokenChar = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                             c == '.' || c == 'e' || c == 'E' || c == 'i' ||
                             c == 'n' || c == 'f' || c == 'a';
      if (!tokenChar) break;
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    Value v;
    v.type_ = Value::Type::Number;
    v.raw_.assign(text_, start, pos_ - start);
    const char* first = v.raw_.data();
    const char* last = v.raw_.data() + v.raw_.size();
    const auto [ptr, ec] = std::from_chars(first, last, v.number_);
    if (ec != std::errc() || ptr != last) fail("invalid number");
    return v;
  }

  Value array() {
    expect('[');
    Value v;
    v.type_ = Value::Type::Array;
    skipSpace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(value());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.type_ = Value::Type::Object;
    skipSpace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skipSpace();
      Value key = string();
      skipSpace();
      expect(':');
      v.object_.emplace_back(std::move(key.raw_), value());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

Value parse(const std::string& text) { return Parser(text).document(); }

}  // namespace vanet::json
