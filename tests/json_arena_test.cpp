/// Tests for the perfbench compatibility spelling in io/json_arena.hpp:
/// `parse_json_arena(...).to_json()` must hand back exactly the tree and
/// the hash-while-parse digest of the facade parser, over the shipped
/// example specs (the bodies perfbench POSTs, verbatim and as sorted
/// compact dumps) and an unsorted body.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/hash.hpp"
#include "io/json.hpp"
#include "io/json_arena.hpp"

namespace greenfpga::io {
namespace {

TEST(JsonArenaToJson, EqualsFacadeParse) {
  const JsonParseOptions options{.allow_comments = true};
  std::vector<std::string> bodies;
  for (const auto& entry : std::filesystem::directory_iterator(GREENFPGA_EXAMPLE_SPECS_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    bodies.push_back(text.str());
    bodies.push_back(parse_json(text.str(), options).dump(0));
  }
  ASSERT_GE(bodies.size(), 16u);
  bodies.emplace_back(R"({"kind": "compare", "domain": "dnn"})");

  for (const std::string& body : bodies) {
    const Json facade = parse_json(body, options);
    const ParsedJson hashed = parse_json_hashed(body, options);
    const JsonDocument doc = parse_json_arena(body, options, /*hash_canonical=*/true);
    EXPECT_EQ(doc.to_json(), facade) << body;
    EXPECT_EQ(doc.parsed.canonical_digest, hashed.canonical_digest) << body;
    if (body == facade.dump(0)) {
      // A sorted compact body is its own canonical stream.
      ASSERT_TRUE(doc.parsed.canonical_digest.has_value()) << body;
      EXPECT_EQ(*doc.parsed.canonical_digest, fnv1a64(body));
    }
    const JsonDocument plain = parse_json_arena(body, options);
    EXPECT_EQ(plain.to_json(), facade) << body;
    EXPECT_FALSE(plain.parsed.canonical_digest.has_value()) << body;
  }
  // Unsorted keys: the tree is canonical, the digest is absent.
  EXPECT_FALSE(parse_json_arena(bodies.back(), options, true).parsed.canonical_digest.has_value());
}

}  // namespace
}  // namespace greenfpga::io
