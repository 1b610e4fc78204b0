/// \file json.cpp
/// RFC 8259 JSON value model, parser entry points and writer (the parser
/// and writer primitives live in src/io/json_detail.hpp).

#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/json_detail.hpp"

namespace greenfpga::io {

namespace {

[[nodiscard]] const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::null:
      return "null";
    case Json::Type::boolean:
      return "boolean";
    case Json::Type::number:
      return "number";
    case Json::Type::string:
      return "string";
    case Json::Type::array:
      return "array";
    case Json::Type::object:
      return "object";
  }
  return "unknown";
}

[[noreturn]] void throw_type_error(Json::Type expected, Json::Type actual) {
  throw JsonError(std::string("JSON type error: expected ") + type_name(expected) + ", got " +
                  type_name(actual));
}

}  // namespace

Json Json::object(std::initializer_list<std::pair<const std::string, Json>> members) {
  // Sorted-unique insertion with first-occurrence-wins on duplicate keys,
  // matching the std::map initializer-list semantics this factory had.
  Object object;
  for (const auto& [key, value] : members) {
    if (!object.contains(key)) {
      object[key] = value;
    }
  }
  return Json(std::move(object));
}

Json Json::array(std::initializer_list<Json> elements) { return Json(Array(elements)); }

Json::Type Json::type() const {
  return static_cast<Type>(value_.index());
}

bool Json::as_bool() const {
  if (!is_bool()) throw_type_error(Type::boolean, type());
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) throw_type_error(Type::number, type());
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double n = as_number();
  // Range-check before casting: double-to-int64 conversion outside the
  // representable range (or of NaN) is undefined behaviour.  2^63 is
  // exactly representable as a double; the valid half-open range is
  // [-2^63, 2^63).
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(n >= -kTwo63 && n < kTwo63)) {
    throw JsonError("JSON number is not an integer: " + std::to_string(n));
  }
  const auto i = static_cast<std::int64_t>(n);
  if (static_cast<double>(i) != n) {
    throw JsonError("JSON number is not an integer: " + std::to_string(n));
  }
  return i;
}

const std::string& Json::as_string() const {
  if (!is_string()) throw_type_error(Type::string, type());
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) throw_type_error(Type::array, type());
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) throw_type_error(Type::array, type());
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) throw_type_error(Type::object, type());
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) throw_type_error(Type::object, type());
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  return as_object().at(key);
}

const Json& Json::at(std::size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) {
    throw JsonError("JSON array index " + std::to_string(index) + " out of range (size " +
                    std::to_string(arr.size()) + ")");
  }
  return arr[index];
}

bool Json::contains(std::string_view key) const {
  return is_object() && as_object().contains(key);
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw JsonError("size() requires a JSON array or object");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    value_ = Object{};
  }
  return as_object()[key];
}

double Json::number_or(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

void Json::push_back(Json element) {
  if (is_null()) {
    value_ = Array{};
  }
  as_array().push_back(std::move(element));
}

// ---------------------------------------------------------------------------
// Number formatting
// ---------------------------------------------------------------------------

namespace detail {

std::size_t format_number_to(char* buffer, double n) {
  if (!std::isfinite(n)) {
    // The canonical non-finite text tokens (quoted by the JSON writer,
    // bare in CSV); they read back as strings, never as numbers.
    if (std::isnan(n)) {
      std::memcpy(buffer, "nan", 3);
      return 3;
    }
    if (n > 0.0) {
      std::memcpy(buffer, "inf", 3);
      return 3;
    }
    std::memcpy(buffer, "-inf", 4);
    return 4;
  }
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    // Integral values print without a fraction for readability.
    const auto [end, ec] =
        std::to_chars(buffer, buffer + kNumberBufferSize, n, std::chars_format::fixed);
    return static_cast<std::size_t>(end - buffer);
  }
  // The historical format is printf %g at the smallest precision in
  // [6, 17] that round-trips.  Reproduce it from one to_chars call:
  // shortest-round-trip scientific form gives the correctly rounded
  // digit string D and decimal exponent X, and for len(D) >= 6 the %g
  // probe loop's winner is exactly %.len(D)g -- whose presentation
  // (fixed vs scientific by the exponent rule, trailing zeros stripped)
  // is reconstructed below byte-for-byte.  len(D) < 6 means %.6g was the
  // first probe and always round-trips, so one snprintf settles it
  // (its 6 significant digits of the exact expansion are NOT the
  // shortest digits -- e.g. 5e-324 prints as 4.94066e-324).
  char sci[kNumberBufferSize];
  const auto [sci_end, sci_ec] =
      std::to_chars(sci, sci + sizeof sci, n, std::chars_format::scientific);
  const char* s = sci;
  const bool negative = (*s == '-');
  if (negative) ++s;
  char digits[24];
  int len = 0;
  digits[len++] = *s++;
  if (*s == '.') {
    ++s;
    while (*s != 'e') digits[len++] = *s++;
  }
  ++s;  // 'e'
  const bool exp_negative = (*s == '-');
  ++s;
  int exp10 = 0;
  while (s < sci_end) exp10 = exp10 * 10 + (*s++ - '0');
  if (exp_negative) exp10 = -exp10;
  if (len < 6) {
    const int written = std::snprintf(buffer, kNumberBufferSize, "%.6g", n);
    return static_cast<std::size_t>(written);
  }
  char* out = buffer;
  if (negative) *out++ = '-';
  if (exp10 < -4 || exp10 >= len) {
    // Scientific presentation: d.ddd e±XX (exponent at least two digits).
    *out++ = digits[0];
    if (len > 1) {
      *out++ = '.';
      std::memcpy(out, digits + 1, static_cast<std::size_t>(len - 1));
      out += len - 1;
    }
    *out++ = 'e';
    *out++ = exp10 < 0 ? '-' : '+';
    int magnitude = exp10 < 0 ? -exp10 : exp10;
    char exp_digits[8];
    int exp_len = 0;
    do {
      exp_digits[exp_len++] = static_cast<char>('0' + magnitude % 10);
      magnitude /= 10;
    } while (magnitude != 0);
    while (exp_len < 2) exp_digits[exp_len++] = '0';
    while (exp_len != 0) *out++ = exp_digits[--exp_len];
  } else if (exp10 < 0) {
    // 0.00ddd
    *out++ = '0';
    *out++ = '.';
    for (int i = 0; i < -exp10 - 1; ++i) *out++ = '0';
    std::memcpy(out, digits, static_cast<std::size_t>(len));
    out += len;
  } else {
    // Fixed presentation, decimal point inside or right of the digits.
    const int int_digits = exp10 + 1;
    if (int_digits >= len) {
      std::memcpy(out, digits, static_cast<std::size_t>(len));
      out += len;
      for (int i = 0; i < int_digits - len; ++i) *out++ = '0';
    } else {
      std::memcpy(out, digits, static_cast<std::size_t>(int_digits));
      out += int_digits;
      *out++ = '.';
      std::memcpy(out, digits + int_digits, static_cast<std::size_t>(len - int_digits));
      out += len - int_digits;
    }
  }
  return static_cast<std::size_t>(out - buffer);
}

}  // namespace detail

std::string format_number(double n) {
  char buffer[detail::kNumberBufferSize];
  return std::string(buffer, detail::format_number_to(buffer, n));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

Json parse_json(std::string_view text, JsonParseOptions options) {
  detail::Parser parser(text, options, /*hash_canonical=*/false);
  return parser.parse_document();
}

ParsedJson parse_json_hashed(std::string_view text, JsonParseOptions options) {
  detail::Parser parser(text, options, /*hash_canonical=*/true);
  Json value = parser.parse_document();
  return ParsedJson{std::move(value), parser.canonical_digest()};
}

Json parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw JsonError("cannot open JSON file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_json(buffer.str(), JsonParseOptions{.allow_comments = true});
  } catch (const JsonError& error) {
    // Name the file: a batch over dozens of specs would otherwise report
    // a bare line:column with no hint of which input is malformed.
    throw JsonError(path + ": " + error.what());
  }
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw JsonError("cannot write JSON file: " + path);
  }
  std::string text;
  value.dump_to(text, indent);
  text.push_back('\n');
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) {
    throw JsonError("cannot write JSON file: " + path);
  }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

template <class Sink>
void dump_value(const Json& value, Sink& sink, int indent, int depth) {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      sink.push('\n');
      sink.pad(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
    }
  };
  switch (value.type()) {
    case Json::Type::null:
      sink.append("null", 4);
      return;
    case Json::Type::boolean:
      if (value.as_bool()) {
        sink.append("true", 4);
      } else {
        sink.append("false", 5);
      }
      return;
    case Json::Type::number:
      detail::write_number_value(sink, value.as_number());
      return;
    case Json::Type::string:
      detail::write_escaped(sink, value.as_string());
      return;
    case Json::Type::array: {
      const auto& arr = value.as_array();
      if (arr.empty()) {
        sink.append("[]", 2);
        return;
      }
      sink.push('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) sink.push(',');
        newline_pad(depth + 1);
        dump_value(arr[i], sink, indent, depth + 1);
      }
      newline_pad(depth);
      sink.push(']');
      return;
    }
    case Json::Type::object: {
      const auto& obj = value.as_object();
      if (obj.empty()) {
        sink.append("{}", 2);
        return;
      }
      sink.push('{');
      bool first = true;
      for (const auto& [key, member] : obj) {
        if (!first) sink.push(',');
        first = false;
        newline_pad(depth + 1);
        detail::write_escaped(sink, key);
        if (indent > 0) {
          sink.append(": ", 2);
        } else {
          sink.push(':');
        }
        dump_value(member, sink, indent, depth + 1);
      }
      newline_pad(depth);
      sink.push('}');
      return;
    }
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

void Json::dump_to(std::string& out, int indent) const {
  detail::StringSink sink{out};
  dump_value(*this, sink, indent, 0);
}

std::uint64_t Json::dump_to_hashed(std::string& out, int indent) const {
  detail::HashedStringSink sink{out};
  dump_value(*this, sink, indent, 0);
  return sink.hash;
}

std::uint64_t Json::canonical_digest() const {
  detail::HashSink sink;
  dump_value(*this, sink, /*indent=*/0, 0);
  return sink.hash;
}

}  // namespace greenfpga::io
