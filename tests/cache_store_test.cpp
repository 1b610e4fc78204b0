/// Tests for the content-addressed disk cache store: bodies stored and
/// loaded verbatim behind a key line, absent/corrupt/truncated files and
/// entries in the older `{"key", "result"}` format degrading to miss,
/// full-key verification rejecting fingerprint collisions, directory
/// creation, and startup failure on an unusable path.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/hash.hpp"
#include "io/json.hpp"
#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::scenario {
namespace {

namespace fs = std::filesystem;

/// The rendered `/v1/run` body of a small compare spec: multi-line
/// pretty JSON ending in a newline, as serve stores it.
std::string small_body(int app_count) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  spec.name = "store test " + std::to_string(app_count);
  spec.schedule.app_count = app_count;
  std::string text;
  result_to_json(Engine(EngineOptions{.threads = 1}).run(spec)).dump_to(text);
  text.push_back('\n');
  return text;
}

std::string file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A per-test scratch directory (unique per test name: ctest runs test
/// cases as parallel processes), wiped on both ends.
class CacheStoreTest : public ::testing::Test {
 protected:
  CacheStoreTest()
      : dir_(::testing::TempDir() + "/greenfpga_cache_store_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
    fs::remove_all(dir_);
  }
  ~CacheStoreTest() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CacheStoreTest, RoundTripIsByteIdenticalAndCreatesTheDirectory) {
  ASSERT_FALSE(fs::exists(dir_ + "/nested"));
  CacheStore store(dir_ + "/nested");  // parents created on construction
  const std::string body = small_body(1);
  ASSERT_TRUE(store.save("the key", body));
  ASSERT_TRUE(fs::is_regular_file(store.path_for("the key")));
  // The file is the key line, then the body verbatim.
  EXPECT_EQ(file_text(store.path_for("the key")), "the key\n" + body);
  const std::shared_ptr<const std::string> loaded = store.load("the key");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(*loaded, body);
}

TEST_F(CacheStoreTest, PathIsTheKeyFingerprint) {
  const CacheStore store(dir_);
  const std::string key = "spec content bytes";
  const std::string expected_name = io::hex64(io::fnv1a64(key)) + ".json";
  EXPECT_EQ(fs::path(store.path_for(key)).filename().string(), expected_name);
}

TEST_F(CacheStoreTest, AbsentEntryLoadsAsNull) {
  const CacheStore store(dir_);
  EXPECT_EQ(store.load("never saved"), nullptr);
}

TEST_F(CacheStoreTest, CorruptOrTruncatedFilesLoadAsNull) {
  CacheStore store(dir_);
  ASSERT_TRUE(store.save("k", small_body(1)));
  // No key line.
  std::ofstream(store.path_for("k"), std::ios::trunc) << "{ not json";
  EXPECT_EQ(store.load("k"), nullptr);
  // A key line but no body.
  std::ofstream(store.path_for("k"), std::ios::trunc) << "k\n";
  EXPECT_EQ(store.load("k"), nullptr);
  // A first line that only starts with the key.
  std::ofstream(store.path_for("k"), std::ios::trunc) << "kk\n{}\n";
  EXPECT_EQ(store.load("k"), nullptr);
  // Empty file (a crashed writer can't leave this -- renames are atomic
  // -- but an operator's stray file can).
  std::ofstream(store.path_for("k"), std::ios::trunc);
  EXPECT_EQ(store.load("k"), nullptr);
}

TEST_F(CacheStoreTest, EmbeddedKeyMismatchIsAMiss) {
  // The file name is only a 64-bit fingerprint; a (forced) collision
  // must read as a miss for the other key, never as its answer.
  CacheStore store(dir_);
  ASSERT_TRUE(store.save("actual key", small_body(1)));
  EXPECT_EQ(file_text(store.path_for("actual key")).rfind("actual key\n", 0), 0u);
  // Impersonate a collision: copy the file to another key's slot.
  fs::copy_file(store.path_for("actual key"), store.path_for("other key"));
  EXPECT_EQ(store.load("other key"), nullptr);
  // The honest key still loads.
  EXPECT_NE(store.load("actual key"), nullptr);
}

TEST_F(CacheStoreTest, DistinctKeysCoexist) {
  CacheStore store(dir_);
  const std::string one = small_body(1);
  const std::string two = small_body(2);
  ASSERT_TRUE(store.save("one", one));
  ASSERT_TRUE(store.save("two", two));
  EXPECT_EQ(*store.load("one"), one);
  EXPECT_EQ(*store.load("two"), two);
}

TEST_F(CacheStoreTest, SaveOverwritesInPlaceAndLeavesNoTempFiles) {
  CacheStore store(dir_);
  ASSERT_TRUE(store.save("k", small_body(1)));
  const std::string updated = small_body(2);
  ASSERT_TRUE(store.save("k", updated));
  EXPECT_EQ(*store.load("k"), updated);
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(CacheStoreTest, UnusableDirectoryFailsAtConstruction) {
  // A regular file where the directory should be: fail at startup with
  // an actionable error, not silently on every save.
  const std::string blocker = dir_ + "_blocker";
  std::ofstream(blocker, std::ios::trunc) << "in the way";
  EXPECT_THROW(CacheStore{blocker}, std::runtime_error);
  EXPECT_THROW(CacheStore{""}, std::runtime_error);
  fs::remove(blocker);
}

TEST(CacheStore, PrePrFormatEntryIsAMiss) {
  // Entries used to be one compact JSON line, {"key": ..., "result": ...}.
  // Its first line is not the bare key, so it loads as a miss, and the
  // next save replaces it with the key-line format.
  const std::string dir = ::testing::TempDir() + "/greenfpga_cache_store_old_format";
  fs::remove_all(dir);
  CacheStore store(dir);
  const std::string key = R"({"platforms":[],"spec":{"kind":"compare"}})";
  io::Json entry = io::Json::object();
  entry["key"] = key;
  entry["result"] = io::parse_json(small_body(1));
  std::ofstream(store.path_for(key), std::ios::trunc) << entry.dump(0) << '\n';
  EXPECT_EQ(store.load(key), nullptr);
  const std::string body = small_body(2);
  ASSERT_TRUE(store.save(key, body));
  ASSERT_NE(store.load(key), nullptr);
  EXPECT_EQ(*store.load(key), body);
  EXPECT_EQ(file_text(store.path_for(key)), key + "\n" + body);
  fs::remove_all(dir);
}

TEST(CacheStore, SaveFailingAtCloseLeavesNoEntry) {
  // The first temp file of a fresh store is path_for(key) + ".tmp.0";
  // pointing it at /dev/full makes the open and the buffered write succeed
  // and only the flush at close fail.
  if (!fs::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full absent";
  }
  const std::string dir = ::testing::TempDir() + "/greenfpga_cache_store_full";
  fs::remove_all(dir);
  CacheStore store(dir);
  const std::string tiny = "{\"tiny\": true}\n";
  const std::string final_path = store.path_for("small key");
  fs::create_symlink("/dev/full", final_path + ".tmp.0");

  EXPECT_FALSE(store.save("small key", tiny));
  // Checked through the filesystem: load() would read /dev/full forever.
  EXPECT_FALSE(fs::exists(fs::symlink_status(final_path)));
  EXPECT_FALSE(fs::exists(fs::symlink_status(final_path + ".tmp.0")));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace greenfpga::scenario
