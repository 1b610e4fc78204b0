#ifndef GREENFPGA_IO_JSON_DETAIL_HPP
#define GREENFPGA_IO_JSON_DETAIL_HPP

/// \file json_detail.hpp
/// Internals of the JSON facade (json.cpp).  Not part of the public io::
/// API.
///
/// Three pieces live here:
///
///   * `format_number_to` -- the shortest-round-trip number formatter
///     (printf %g presentation reconstructed from std::to_chars shortest
///     digits; byte-identical to the historical snprintf probe loop, at
///     roughly one to_chars call per number instead of up to twelve
///     snprintf+from_chars probes);
///   * sink-templated writing -- `write_escaped` / `write_number_value`
///     emit into any Sink (append bytes / append + FNV-1a / FNV-1a only),
///     which is how `dump_to`, `dump_to_hashed` and the allocation-free
///     `canonical_digest` share one writer;
///   * `Parser` -- the recursive-descent RFC 8259 parser that grows the
///     `Json` tree and computes the canonical-stream FNV-1a digest *while
///     parsing* (valid whenever object keys arrive already sorted, which
///     is true of every canonical artifact this repo emits).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "io/hash.hpp"
#include "io/json.hpp"

namespace greenfpga::io::detail {

/// Upper bound on the bytes `format_number_to` writes (sign + 17 digits +
/// point + "e-308" leaves ample slack).
inline constexpr std::size_t kNumberBufferSize = 40;

/// Write the canonical shortest-round-trip form of `n` into `buffer`
/// (bare non-finite sentinels "inf"/"-inf"/"nan"); returns the length.
/// Defined in json.cpp; `io::format_number` is a std::string wrapper.
std::size_t format_number_to(char* buffer, double n);

// -- writer sinks -----------------------------------------------------------

/// Appends bytes to a std::string.
struct StringSink {
  std::string& out;
  void append(const char* data, std::size_t n) { out.append(data, n); }
  void push(char c) { out.push_back(c); }
  void pad(std::size_t n, char c) { out.append(n, c); }
};

/// Folds bytes into a streaming FNV-1a digest; nothing is materialized.
struct HashSink {
  Fnv1aHasher hasher{};
  void append(const char* data, std::size_t n) { hasher.update(std::string_view(data, n)); }
  void push(char c) { hasher.update(c); }
  void pad(std::size_t n, char c) {
    while (n-- > 0) push(c);
  }
};

/// Appends and digests in one pass (hash-while-dump: `dump_to_hashed`).
struct HashedStringSink {
  std::string& out;
  Fnv1aHasher hasher{};
  void append(const char* data, std::size_t n) {
    out.append(data, n);
    hasher.update(std::string_view(data, n));
  }
  void push(char c) {
    out.push_back(c);
    hasher.update(c);
  }
  void pad(std::size_t n, char c) {
    while (n-- > 0) push(c);
  }
};

/// JSON string escaping (quotes included), identical bytes for every sink.
template <class Sink>
void write_escaped(Sink& sink, std::string_view s) {
  sink.push('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        sink.append("\\\"", 2);
        break;
      case '\\':
        sink.append("\\\\", 2);
        break;
      case '\b':
        sink.append("\\b", 2);
        break;
      case '\f':
        sink.append("\\f", 2);
        break;
      case '\n':
        sink.append("\\n", 2);
        break;
      case '\r':
        sink.append("\\r", 2);
        break;
      case '\t':
        sink.append("\\t", 2);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          const int n = std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          sink.append(buffer, static_cast<std::size_t>(n));
        } else {
          sink.push(c);
        }
    }
  }
  sink.push('"');
}

/// A number in value position: bare when finite, a *quoted* sentinel when
/// not (RFC 8259 has no inf/nan literal).
template <class Sink>
void write_number_value(Sink& sink, double n) {
  char buffer[kNumberBufferSize];
  const std::size_t length = format_number_to(buffer, n);
  if (!std::isfinite(n)) {
    sink.push('"');
    sink.append(buffer, length);
    sink.push('"');
    return;
  }
  sink.append(buffer, length);
}

// -- parser -----------------------------------------------------------------

/// The recursive-descent parser.  Object members accumulate directly into
/// the sorted flat storage of `JsonObject`: canonical input (keys already
/// sorted) appends in O(1); an out-of-order key pays one mid-vector
/// insert and switches hash-while-parse off.
class Parser {
 public:
  Parser(std::string_view text, JsonParseOptions options, bool hash_canonical)
      : text_(text), options_(options), hashing_(hash_canonical) {
    // Skip a UTF-8 byte-order mark if present.
    if (text_.substr(0, 3) == "\xEF\xBB\xBF") {
      pos_ = 3;
    }
  }

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

  /// The FNV-1a digest of the document's canonical compact byte stream
  /// (`Json::dump(0)` bytes), when it could be computed during the parse:
  /// hashing was requested and every object's keys arrived sorted.
  [[nodiscard]] std::optional<std::uint64_t> canonical_digest() const {
    if (hashing_) return hash_.hasher.digest();
    return std::nullopt;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("JSON parse error at " + std::to_string(line) + ":" +
                    std::to_string(column) + ": " + message);
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (options_.allow_comments && c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!at_end() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  Json parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        const std::string_view s = parse_string();
        if (hashing_) write_escaped(hash_, s);
        return Json(std::string(s));
      }
      case 't':
        parse_keyword("true");
        return Json(true);
      case 'f':
        parse_keyword("false");
        return Json(false);
      case 'n':
        parse_keyword("null");
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  void parse_keyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      fail("invalid literal (expected '" + std::string(keyword) + "')");
    }
    pos_ += keyword.size();
    if (hashing_) hash_.append(keyword.data(), keyword.size());
  }

  /// RAII nesting guard: one per parse_object/parse_array activation.
  /// The recursive-descent parser spends one stack frame per level, so
  /// the cap turns a deeply-nested bomb ("["*100k) into a JsonError at
  /// the offending bracket instead of a stack overflow.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > parser_.options_.max_depth) {
        parser_.fail("nesting depth exceeds " + std::to_string(parser_.options_.max_depth));
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& parser_;
  };

  Json parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    if (hashing_) hash_.push('{');
    JsonObject::Storage members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      if (hashing_) hash_.push('}');
      return Json(JsonObject::adopt_sorted(std::move(members)));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected string key in object");
      // The key view dies at the next lexer step, so it is copied into
      // its member slot before the value is parsed.
      const std::string_view key = parse_string();
      std::size_t slot = members.size();
      if (members.empty() || std::string_view(members.back().first) < key) {
        members.emplace_back(std::string(key), Json());
      } else {
        const auto it = std::lower_bound(
            members.begin(), members.end(), key,
            [](const JsonObject::Member& m, std::string_view k) {
              return std::string_view(m.first) < k;
            });
        if (it != members.end() && it->first == key) {
          fail("duplicate object key");
        }
        // Keys out of source order: the canonical (sorted) byte stream
        // can no longer be reproduced on the fly.
        hashing_ = false;
        slot = static_cast<std::size_t>(it - members.begin());
        members.emplace(it, std::string(key), Json());
      }
      if (hashing_) {
        if (slot != 0) hash_.push(',');
        write_escaped(hash_, key);
        hash_.push(':');
      }
      skip_whitespace();
      expect(':');
      members[slot].second = parse_value();
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      if (hashing_) hash_.push('}');
      return Json(JsonObject::adopt_sorted(std::move(members)));
    }
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    if (hashing_) hash_.push('[');
    Json::Array elements;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      if (hashing_) hash_.push(']');
      return Json(std::move(elements));
    }
    while (true) {
      if (hashing_ && !elements.empty()) hash_.push(',');
      elements.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      if (hashing_) hash_.push(']');
      return Json(std::move(elements));
    }
  }

  /// Decoded string contents.  The view aliases the source text when the
  /// string has no escapes, the parser's scratch buffer otherwise; either
  /// way it is only valid until the next lexer step, so callers copy.
  std::string_view parse_string() {
    expect('"');
    const std::size_t start = pos_;
    // Fast scan: most strings (keys in particular) contain no escapes and
    // no control characters, so the common case is one pass + zero copies.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        const std::string_view plain = text_.substr(start, pos_ - start);
        ++pos_;
        return plain;
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      ++pos_;
    }
    // Slow path: copy the clean prefix, then decode escape by escape.
    scratch_.assign(text_.data() + start, pos_ - start);
    while (true) {
      if (at_end()) fail("unterminated string");
      const char c = advance();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        // Bulk-copy the clean run that starts at this character.
        const std::size_t run = pos_ - 1;
        while (pos_ < text_.size()) {
          const char d = text_[pos_];
          if (d == '"' || d == '\\' || static_cast<unsigned char>(d) < 0x20) break;
          ++pos_;
        }
        scratch_.append(text_.data() + run, pos_ - run);
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"':
          scratch_.push_back('"');
          break;
        case '\\':
          scratch_.push_back('\\');
          break;
        case '/':
          scratch_.push_back('/');
          break;
        case 'b':
          scratch_.push_back('\b');
          break;
        case 'f':
          scratch_.push_back('\f');
          break;
        case 'n':
          scratch_.push_back('\n');
          break;
        case 'r':
          scratch_.push_back('\r');
          break;
        case 't':
          scratch_.push_back('\t');
          break;
        case 'u':
          append_unicode_escape(scratch_);
          break;
        default:
          fail("invalid escape sequence");
      }
    }
    return scratch_;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    // Surrogate pair handling for characters outside the BMP.
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // Encode as UTF-8.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    const char* const data = text_.data();
    if (!at_end() && data[pos_] == '-') ++pos_;
    const auto digit = [&](std::size_t i) {
      return i < text_.size() && data[i] >= '0' && data[i] <= '9';
    };
    if (!digit(pos_)) {
      fail("invalid number");
    }
    // Integer part: a single 0, or a nonzero digit followed by digits.
    if (data[pos_] == '0') {
      ++pos_;
    } else {
      while (digit(pos_)) ++pos_;
    }
    // Fraction.
    if (pos_ < text_.size() && data[pos_] == '.') {
      ++pos_;
      if (!digit(pos_)) {
        fail("digit expected after decimal point");
      }
      while (digit(pos_)) ++pos_;
    }
    // Exponent.
    if (pos_ < text_.size() && (data[pos_] == 'e' || data[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (data[pos_] == '+' || data[pos_] == '-')) ++pos_;
      if (!digit(pos_)) {
        fail("digit expected in exponent");
      }
      while (digit(pos_)) ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(data + start, data + pos_, value);
    if (ec != std::errc{} || ptr != data + pos_) {
      fail("number out of range");
    }
    if (hashing_) {
      char buffer[kNumberBufferSize];
      hash_.append(buffer, format_number_to(buffer, value));
    }
    return Json(value);
  }

  std::string_view text_;
  JsonParseOptions options_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string scratch_;  ///< escape-decoding buffer, reused across strings
  bool hashing_ = false;
  HashSink hash_;
};

}  // namespace greenfpga::io::detail

#endif  // GREENFPGA_IO_JSON_DETAIL_HPP
