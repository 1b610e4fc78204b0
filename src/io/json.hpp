#ifndef GREENFPGA_IO_JSON_HPP
#define GREENFPGA_IO_JSON_HPP

/// \file json.hpp
/// A small, dependency-free JSON document model, parser and writer.
///
/// GreenFPGA scenario configurations and machine-readable experiment
/// outputs are JSON.  The library has no external dependencies beyond the
/// test/bench frameworks, so JSON support is implemented here: a strict
/// RFC 8259 parser (with the common relaxation of allowing a UTF-8 BOM and
/// `//` comments in *config* mode), a pretty-printing writer, and a value
/// model with checked accessors that raise `JsonError` with a useful path.
///
/// `Json` is the one document model: every caller builds, edits, parses
/// into and dumps from it, over one parser and one writer
/// (src/io/json_detail.hpp).  Objects are sorted flat vectors
/// (`JsonObject`), not node-per-member maps, so parsing canonical
/// (already key-sorted) input appends in O(1) with no per-member tree
/// allocation, and iteration order is the canonical dump order by
/// construction.
///
/// The parser can compute the FNV-1a digest of the document's canonical
/// compact byte stream *while parsing* (`parse_json_hashed`), so a serve
/// request is fingerprinted in the same pass that builds its tree,
/// without ever re-serializing it.

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace greenfpga::io {

class Json;

/// Raised on malformed JSON text or on type-mismatched access to a value.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message) : std::runtime_error(message) {}
};

/// A JSON object: members kept sorted by key in one flat vector.
///
/// The sorted flat layout replaces the old `std::map` storage: no
/// per-member tree node, cache-friendly iteration in canonical dump
/// order, O(log n) lookup by binary search, and O(1) append when keys
/// arrive already sorted (true of every canonical artifact this repo
/// round-trips).  Mutation via `operator[]`/`erase` is O(n) -- fine for
/// the build-side API, which assembles small documents.
///
/// Iterators and member references follow std::vector rules: any insert
/// or erase may invalidate all of them (the std::map guarantee of stable
/// references is gone -- do not hold a `Json&` into an object across a
/// mutation of that object).
class JsonObject {
 public:
  using Member = std::pair<std::string, Json>;
  using Storage = std::vector<Member>;
  using value_type = Member;
  using iterator = Storage::iterator;
  using const_iterator = Storage::const_iterator;

  JsonObject() = default;

  /// Adopt a member vector that is already sorted by key with no
  /// duplicates (the parser's fast path).  The precondition is not
  /// checked.
  [[nodiscard]] static JsonObject adopt_sorted(Storage members);

  [[nodiscard]] iterator begin() { return members_.begin(); }
  [[nodiscard]] iterator end() { return members_.end(); }
  [[nodiscard]] const_iterator begin() const { return members_.begin(); }
  [[nodiscard]] const_iterator end() const { return members_.end(); }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  void reserve(std::size_t n) { members_.reserve(n); }

  [[nodiscard]] iterator find(std::string_view key);
  [[nodiscard]] const_iterator find(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Checked member access; throws JsonError naming the missing key.
  [[nodiscard]] Json& at(std::string_view key);
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Insert-or-find: a null member is created when `key` is absent.
  Json& operator[](std::string_view key);

  /// Remove `key` if present; returns the number of members removed (0/1),
  /// matching the std::map::erase signature callers relied on.
  std::size_t erase(std::string_view key);

  friend bool operator==(const JsonObject& a, const JsonObject& b) = default;

 private:
  /// First member whose key is >= `key` (insertion point / lookup probe).
  [[nodiscard]] Storage::const_iterator lower_bound(std::string_view key) const;

  Storage members_;  ///< sorted by key, unique
};

/// A JSON value: null, boolean, number, string, array or object.
///
/// Objects preserve no insertion order; keys are kept sorted (JsonObject)
/// so serialized output is deterministic, which keeps golden-file tests
/// stable.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = JsonObject;

  enum class Type { null, boolean, number, string, array, object };

  // -- constructors ----------------------------------------------------------
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}                      // NOLINT
  Json(bool b) : value_(b) {}                                    // NOLINT
  Json(double n) : value_(n) {}                                  // NOLINT
  Json(int n) : value_(static_cast<double>(n)) {}                // NOLINT
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}       // NOLINT
  Json(std::size_t n) : value_(static_cast<double>(n)) {}        // NOLINT
  Json(const char* s) : value_(std::string(s)) {}                // NOLINT
  Json(std::string s) : value_(std::move(s)) {}                  // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}           // NOLINT
  Json(Array a) : value_(std::move(a)) {}                        // NOLINT
  Json(Object o) : value_(std::move(o)) {}                       // NOLINT

  /// Convenience factory for object literals:
  ///   Json::object({{"a", 1.0}, {"b", "x"}})
  [[nodiscard]] static Json object(
      std::initializer_list<std::pair<const std::string, Json>> members = {});
  /// Convenience factory for array literals: Json::array({1.0, 2.0}).
  [[nodiscard]] static Json array(std::initializer_list<Json> elements = {});

  // -- classification ---------------------------------------------------------
  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::null; }
  [[nodiscard]] bool is_bool() const { return type() == Type::boolean; }
  [[nodiscard]] bool is_number() const { return type() == Type::number; }
  [[nodiscard]] bool is_string() const { return type() == Type::string; }
  [[nodiscard]] bool is_array() const { return type() == Type::array; }
  [[nodiscard]] bool is_object() const { return type() == Type::object; }

  // -- checked accessors (throw JsonError on type mismatch) --------------------
  [[nodiscard]] bool as_bool() const;
  /// Strict number access: a JSON number only.  The non-finite string
  /// sentinels `dump` writes are strings here, so spec/config readers
  /// cannot be fed smuggled inf/NaN values that evade range validation.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< number, checked integral
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object member access; throws JsonError naming the missing key.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Array element access with bounds check.
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] bool contains(std::string_view key) const;
  [[nodiscard]] std::size_t size() const;

  /// `object[key]` that inserts a null member when absent (build-side API).
  Json& operator[](const std::string& key);

  /// Typed lookups with defaults, for optional config fields.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key, std::string fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;

  /// Append to an array value.
  void push_back(Json element);

  /// Serialize; `indent` <= 0 yields compact single-line output.
  /// Non-finite numbers serialize as the string sentinels "inf" / "-inf"
  /// / "nan" (RFC 8259 has no number syntax for them), so the dump stays
  /// valid JSON and re-parses to byte-identical text; the sentinels read
  /// back as strings, which `as_number()` rejects.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Serialize by *appending* to `out` -- same bytes as `dump`, no
  /// intermediate temporaries.  The path large results, serve response
  /// bodies and `write_json_file` take.
  void dump_to(std::string& out, int indent = 2) const;

  /// `dump_to` that additionally returns the FNV-1a digest of exactly the
  /// appended bytes, computed in the same pass (hash-while-dump).  This is
  /// how `Engine` derives cache key bytes and their fingerprint together.
  std::uint64_t dump_to_hashed(std::string& out, int indent = 2) const;

  /// FNV-1a digest of the canonical compact dump (`dump(0)` bytes)
  /// without materializing it: the writer streams into the hash only.
  [[nodiscard]] std::uint64_t canonical_digest() const;

  friend bool operator==(const Json& a, const Json& b) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

// JsonObject members that need Json complete.

inline JsonObject::Storage::const_iterator JsonObject::lower_bound(std::string_view key) const {
  auto lo = members_.begin();
  auto hi = members_.end();
  while (lo != hi) {
    const auto mid = lo + (hi - lo) / 2;
    if (std::string_view(mid->first) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

inline JsonObject::const_iterator JsonObject::find(std::string_view key) const {
  const auto it = lower_bound(key);
  if (it != members_.end() && it->first == key) return it;
  return members_.end();
}

inline JsonObject::iterator JsonObject::find(std::string_view key) {
  const auto it = static_cast<const JsonObject&>(*this).find(key);
  return members_.begin() + (it - members_.cbegin());
}

inline bool JsonObject::contains(std::string_view key) const {
  return find(key) != members_.end();
}

inline const Json& JsonObject::at(std::string_view key) const {
  const auto it = find(key);
  if (it == members_.end()) {
    throw JsonError("JSON object has no member \"" + std::string(key) + "\"");
  }
  return it->second;
}

inline Json& JsonObject::at(std::string_view key) {
  const auto it = find(key);
  if (it == members_.end()) {
    throw JsonError("JSON object has no member \"" + std::string(key) + "\"");
  }
  return it->second;
}

inline Json& JsonObject::operator[](std::string_view key) {
  const auto pos = lower_bound(key);
  const auto index = pos - members_.cbegin();
  if (pos != members_.cend() && pos->first == key) {
    return members_[static_cast<std::size_t>(index)].second;
  }
  members_.emplace(members_.begin() + index, std::string(key), Json());
  return members_[static_cast<std::size_t>(index)].second;
}

inline std::size_t JsonObject::erase(std::string_view key) {
  const auto it = find(key);
  if (it == members_.end()) return 0;
  members_.erase(it);
  return 1;
}

inline JsonObject JsonObject::adopt_sorted(Storage members) {
  JsonObject object;
  object.members_ = std::move(members);
  return object;
}

/// Parser options; `allow_comments` additionally accepts `//`-to-end-of-line
/// comments (used for hand-written scenario configs).  `max_depth` caps
/// array/object nesting: a recursive-descent parser consumes one stack
/// frame per level, so without a cap a `[[[[...` bomb overflows the stack
/// instead of failing cleanly (exceeding it raises JsonError with the
/// usual line:column position).
struct JsonParseOptions {
  bool allow_comments = false;
  int max_depth = 256;
};

/// Shortest decimal form of `n` that parses back to exactly the same
/// double (the JSON writer's number format).  Non-finite values render as
/// the text sentinels "inf" / "-inf" / "nan" (quoted as strings in JSON
/// output -- see `Json::dump` -- and bare in CSV).  Shared by every
/// machine-readable emitter, so a value renders the same bytes wherever
/// it is exported.
[[nodiscard]] std::string format_number(double n);

/// Parse a complete JSON document.  Throws JsonError with 1-based
/// line:column on malformed input or trailing garbage.
[[nodiscard]] Json parse_json(std::string_view text, JsonParseOptions options = {});

/// `parse_json` plus hash-while-parse: when every object's keys arrive
/// already sorted (true of canonical artifacts: dumps, cache entries,
/// spec round-trips), `canonical_digest` holds the FNV-1a of the
/// document's canonical compact byte stream -- the same value
/// `value.canonical_digest()` would compute, for free.  Out-of-order keys
/// leave it empty (the document still parses normally).
struct ParsedJson {
  Json value;
  std::optional<std::uint64_t> canonical_digest;
};
[[nodiscard]] ParsedJson parse_json_hashed(std::string_view text,
                                           JsonParseOptions options = {});

/// Read and parse a JSON file (comments allowed: files are configs).
/// Errors -- unreadable file or malformed JSON -- name the file path
/// ahead of the parser's line:column position.
[[nodiscard]] Json parse_json_file(const std::string& path);

/// Write `value` to `path` (pretty-printed), creating parent dirs if needed.
void write_json_file(const std::string& path, const Json& value, int indent = 2);

}  // namespace greenfpga::io

#endif  // GREENFPGA_IO_JSON_HPP
