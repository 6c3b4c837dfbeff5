#pragma once

/// \file json_in.hpp
/// Minimal recursive-descent JSON parser: just enough to parse back what
/// the obs layer emits (objects, arrays, strings, numbers, booleans,
/// null). Originally the telemetry tests' mini_json helper, promoted here
/// so tools/tlb_report can ingest trace/metrics/timeline documents with
/// the same code the tests assert round-trips with. Throws
/// std::runtime_error on malformed input, including arrays and objects
/// nested deeper than JsonParser::kMaxDepth.

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace tlb::obs {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] JsonObject const& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] JsonArray const& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] std::string const& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  [[nodiscard]] bool boolean() const { return std::get<bool>(v); }

  /// Object member access; throws if absent.
  [[nodiscard]] JsonValue const& at(std::string const& key) const {
    auto const& obj = object();
    auto const it = obj.find(key);
    if (it == obj.end()) {
      throw std::runtime_error("json_in: missing key '" + key + "'");
    }
    return it->second;
  }
  [[nodiscard]] bool has(std::string const& key) const {
    return object().count(key) > 0;
  }
};

class JsonParser {
public:
  /// Deepest array/object nesting accepted: the obs layer emits at most 5
  /// levels, and the cap keeps hostile input from overflowing the stack
  /// (the parser recurses once per level).
  static constexpr std::size_t kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_{text} {}

  [[nodiscard]] JsonValue parse() {
    auto value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters");
    }
    return value;
  }

private:
  [[noreturn]] void fail(std::string const& what) const {
    throw std::runtime_error("json_in: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string{"expected '"} + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    switch (peek()) {
    case '{':
    case '[': {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      auto value = text_[pos_] == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    case '"': return JsonValue{parse_string()};
    case 't':
      if (consume_literal("true")) {
        return JsonValue{true};
      }
      fail("bad literal");
    case 'f':
      if (consume_literal("false")) {
        return JsonValue{false};
      }
      fail("bad literal");
    case 'n':
      if (consume_literal("null")) {
        return JsonValue{nullptr};
      }
      fail("bad literal");
    default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      if (peek() != '"') {
        fail("expected object key");
      }
      auto key = parse_string();
      expect(':');
      (*obj)[std::move(key)] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{obj};
    }
  }

  JsonValue parse_array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (true) {
      arr->push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{arr};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      char const c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        char const e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          auto const hex = std::string{text_.substr(pos_, 4)};
          pos_ += 4;
          auto const code = std::strtoul(hex.c_str(), nullptr, 16);
          // ASCII-only emitter: codepoints above 0x7f are not produced.
          out += static_cast<char>(code);
          break;
        }
        default: fail("bad escape");
        }
        continue;
      }
      out += c;
    }
  }

  JsonValue parse_number() {
    auto const start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
    }
    return JsonValue{
        std::strtod(std::string{text_.substr(start, pos_ - start)}.c_str(),
                    nullptr)};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

[[nodiscard]] inline JsonValue parse_json(std::string_view text) {
  return JsonParser{text}.parse();
}

} // namespace tlb::obs
