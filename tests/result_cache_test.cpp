/// Tests for the content-addressed sharded LRU, through its byte
/// instantiation (`BodyCache`, serve's cache of rendered bodies):
/// hit/miss/eviction counters, capacity-bound eviction order, evicted
/// entries outliving their holders, sharded counters staying exact, the
/// disk tier promoting on memory miss, a multi-threaded hammer (run under
/// the ASan+UBSan CI job), and the engine's content key.  The engine keeps
/// no cache; hit/miss behaviour over real requests is pinned by
/// tests/serve_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/hash.hpp"
#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::scenario {
namespace {

ScenarioSpec compare_spec(int app_count) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn);
  spec.name = "cache test " + std::to_string(app_count);
  spec.schedule.app_count = app_count;
  return spec;
}

/// The rendered `/v1/run` body of `spec`: what serve caches.
std::shared_ptr<const std::string> body_of(const ScenarioSpec& spec) {
  std::string text;
  result_to_json(Engine(EngineOptions{.threads = 1}).run(spec)).dump_to(text);
  text.push_back('\n');
  return std::make_shared<const std::string>(std::move(text));
}

TEST(ResultCache, MissThenHitWithCounters) {
  BodyCache cache(8);
  EXPECT_EQ(cache.lookup("k"), nullptr);
  cache.insert("k", body_of(compare_spec(1)));
  const std::shared_ptr<const std::string> hit = cache.lookup("k");
  ASSERT_NE(hit, nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(ResultCache, InsertRejectsNull) {
  BodyCache cache(2);
  EXPECT_THROW(cache.insert("k", nullptr), std::invalid_argument);
}

TEST(ResultCache, CapacityBoundEvictionIsLeastRecentlyUsed) {
  BodyCache cache(2);
  const auto a = body_of(compare_spec(1));
  const auto b = body_of(compare_spec(2));
  const auto c = body_of(compare_spec(3));
  cache.insert("a", a);
  cache.insert("b", b);
  // Freshen "a": "b" becomes the LRU entry.
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.insert("c", c);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup("b"), nullptr);  // evicted
  EXPECT_NE(cache.lookup("a"), nullptr);  // survived the eviction
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ResultCache, EvictedEntrySurvivesForHolders) {
  // A reader holding the shared_ptr keeps its bytes alive across
  // eviction (the serve handler may still be copying them out).
  BodyCache cache(1);
  cache.insert("a", body_of(compare_spec(1)));
  const std::shared_ptr<const std::string> held = cache.lookup("a");
  cache.insert("b", body_of(compare_spec(2)));
  EXPECT_EQ(cache.lookup("a"), nullptr);
  EXPECT_EQ(*held, *body_of(compare_spec(1)));
}

TEST(ResultCache, ClearKeepsLifetimeCounters) {
  BodyCache cache(4);
  cache.insert("a", body_of(compare_spec(1)));
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.lookup("a"), nullptr);
}

TEST(ResultCache, ZeroCapacityClampsToOne) {
  BodyCache cache(0);
  EXPECT_EQ(cache.stats().capacity, 1u);
}

TEST(ResultCache, ShardedCountersStayExact) {
  // Capacity 4 over 2 shards (2 each).  Ten distinct keys land on shards
  // by FNV-1a digest; whatever the split, the aggregated counters must
  // account for every operation exactly.
  BodyCache cache(4, 2);
  const auto result = body_of(compare_spec(1));
  for (int i = 0; i < 10; ++i) {
    cache.insert("key " + std::to_string(i), result);
  }
  const ResultCacheStats after_inserts = cache.stats();
  EXPECT_EQ(after_inserts.shards, 2u);
  EXPECT_EQ(after_inserts.capacity, 4u);
  EXPECT_LE(after_inserts.size, 4u);
  EXPECT_EQ(after_inserts.evictions, 10u - after_inserts.size);
  std::uint64_t found = 0;
  for (int i = 0; i < 10; ++i) {
    if (cache.lookup("key " + std::to_string(i)) != nullptr) {
      ++found;
    }
  }
  const ResultCacheStats after_lookups = cache.stats();
  EXPECT_EQ(found, after_inserts.size);  // exactly the residents hit
  EXPECT_EQ(after_lookups.hits, found);
  EXPECT_EQ(after_lookups.misses, 10u - found);
  EXPECT_EQ(after_lookups.hits + after_lookups.misses, 10u);
}

TEST(ResultCache, ShardCapacityRoundsUp) {
  // ceil(5 / 4) = 2 per shard: the effective total is 8, never 4.
  const BodyCache cache(5, 4);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.capacity, 8u);
  // Degenerate inputs clamp instead of dividing by zero.
  EXPECT_EQ(BodyCache(0, 0).stats().capacity, 1u);
  EXPECT_EQ(BodyCache(0, 0).stats().shards, 1u);
}

TEST(ResultCache, ShardedHammerAccountsForEveryOperation) {
  // The sharded path under thread churn: distinct keys spread over
  // shards, capacity forcing eviction, every lookup+insert tallied.
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  constexpr int kKeys = 16;
  BodyCache cache(8, 4);
  const auto result = body_of(compare_spec(1));
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string key = "key " + std::to_string((t + i) % kKeys);
        if (cache.lookup(key) == nullptr) {
          cache.insert(key, result);
        }
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_LE(stats.size, 8u);
  EXPECT_EQ(stats.disk_hits, 0u);  // no store attached
}

TEST(ResultCache, DiskTierPromotesOnMemoryMissAndSurvivesEviction) {
  const std::string dir = ::testing::TempDir() + "/greenfpga_cache_tier";
  std::filesystem::remove_all(dir);
  CacheStore store(dir);
  const ScenarioSpec spec = compare_spec(1);
  const auto a = body_of(spec);
  const auto b = body_of(compare_spec(2));
  {
    BodyCache cache(1);
    cache.attach_store(&store);
    cache.insert("a", a);
    cache.insert("b", b);  // evicts "a" from memory; disk keeps it
    const std::shared_ptr<const std::string> back = cache.lookup("a");
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(*back, *a);
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
  }
  // A fresh cache over the same store: still answered, from disk.
  {
    BodyCache cache(4);
    cache.attach_store(&store);
    const std::shared_ptr<const std::string> back = cache.lookup("b");
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(*back, *b);
    // Promoted: the second lookup is a pure memory hit.
    ASSERT_NE(cache.lookup("b"), nullptr);
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.disk_hits, 1u);
  }
  // A corrupted entry degrades to an honest miss, never a wrong answer.
  {
    std::ofstream(store.path_for("a"), std::ios::trunc) << "{ not json";
    BodyCache cache(4);
    cache.attach_store(&store);
    EXPECT_EQ(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CacheKeyCoversSuiteAndResolvedPlatforms) {
  const Engine engine(EngineOptions{.threads = 1});
  ScenarioSpec spec = compare_spec(2);
  const std::string base = engine.cache_key(spec);
  // Same content -> same key, regardless of object identity.
  EXPECT_EQ(engine.cache_key(compare_spec(2)), base);
  // A model-suite change is a different content address.
  ScenarioSpec other_suite = compare_spec(2);
  other_suite.suite.operation.use_intensity =
      2.0 * other_suite.suite.operation.use_intensity;
  EXPECT_NE(engine.cache_key(other_suite), base);
  // A different platform set too.
  ScenarioSpec other_platforms = compare_spec(2);
  other_platforms.platforms = {PlatformRef{.name = "asic"},
                               PlatformRef{.name = "gpu"}};
  EXPECT_NE(engine.cache_key(other_platforms), base);
  // The key is a deterministic function of content, so its digest is too.
  EXPECT_EQ(io::content_digest(base), io::content_digest(engine.cache_key(spec)));
}

TEST(ResultCache, ContentKeyFingerprintIsTheHashOfTheKey) {
  // One prepare yields both the key bytes serve looks up and the
  // fingerprint it reports as X-Cache-Key.
  const Engine engine(EngineOptions{.threads = 1});
  const Engine::ContentKey key = Engine::content_key(engine.prepare(compare_spec(2)));
  EXPECT_EQ(key.bytes, engine.cache_key(compare_spec(2)));
  EXPECT_EQ(key.fingerprint, io::fnv1a64(key.bytes));
}

TEST(ResultCache, ResultInstantiationSharesTheLru) {
  // `ResultCache` is the same LRU over evaluated results.
  ResultCache cache(1);
  const auto result = std::make_shared<const ScenarioResult>(
      Engine(EngineOptions{.threads = 1}).run(compare_spec(1)));
  cache.insert("a", result);
  EXPECT_EQ(cache.lookup("a"), result);
  cache.insert("b", result);
  EXPECT_EQ(cache.lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

}  // namespace
}  // namespace greenfpga::scenario
