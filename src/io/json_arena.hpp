#ifndef GREENFPGA_IO_JSON_ARENA_HPP
#define GREENFPGA_IO_JSON_ARENA_HPP

/// \file json_arena.hpp
/// Kept only for perfbench/'s two `parse_json_arena(...).to_json()` call
/// sites (nothing in src/ uses it); it goes once they call `parse_json_hashed`.

#include "io/json.hpp"

namespace greenfpga::io {

struct JsonDocument {
  ParsedJson parsed;
  [[nodiscard]] const Json& to_json() const { return parsed.value; }  ///< no copy
};

[[nodiscard]] inline JsonDocument parse_json_arena(std::string_view text,
                                                   JsonParseOptions options = {},
                                                   bool hash_canonical = false) {
  return {hash_canonical ? parse_json_hashed(text, options)
                         : ParsedJson{parse_json(text, options), std::nullopt}};
}

}  // namespace greenfpga::io
#endif  // GREENFPGA_IO_JSON_ARENA_HPP
