/// \file result_cache.cpp
/// The sharded content-addressed LRU and its two instantiations.

#include "scenario/result_cache.hpp"

#include <stdexcept>
#include <utility>

#include "io/hash.hpp"
#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::scenario {

/// Whether `Value` can live in the disk tier (byte bodies only).
template <class Value>
constexpr bool kStorable = std::is_same_v<Value, std::string>;

template <class Value>
LruCache<Value>::LruCache(std::size_t capacity, std::size_t shards) {
  if (capacity == 0) {
    capacity = 1;
  }
  if (shards == 0) {
    shards = 1;
  }
  shard_capacity_ = (capacity + shards - 1) / shards;  // ceil: never 0
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

template <class Value>
typename LruCache<Value>::Shard& LruCache<Value>::shard_for(const std::string& key) {
  return *shards_[io::fnv1a64(key) % shards_.size()];
}

template <class Value>
std::shared_ptr<const Value> LruCache<Value>::lookup(const std::string& key) {
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // freshen
      return it->second->value;
    }
  }
  // Memory miss: consult the disk tier with no lock held -- store IO is
  // file IO and must never serialize the shard.
  if constexpr (kStorable<Value>) {
    if (store_ != nullptr) {
      if (std::shared_ptr<const Value> loaded = store_->load(key)) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.hits;
        ++shard.disk_hits;
        insert_locked(shard, key, loaded);
        return loaded;
      }
    }
  }
  const std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;
  return nullptr;
}

template <class Value>
void LruCache<Value>::insert(const std::string& key, std::shared_ptr<const Value> value) {
  if (!value) {
    throw std::invalid_argument("LruCache::insert: null value");
  }
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    insert_locked(shard, key, value);
  }
  if constexpr (kStorable<Value>) {
    if (store_ != nullptr) {
      store_->save(key, *value);  // best-effort; outside the lock
    }
  }
}

template <class Value>
void LruCache<Value>::insert_locked(Shard& shard, const std::string& key,
                                    std::shared_ptr<const Value> value) {
  const auto it = shard.index.find(std::string_view(key));
  if (it != shard.index.end()) {
    // Same content key => same deterministic value; refresh recency only.
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index.emplace(std::string_view(shard.lru.front().key), shard.lru.begin());
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(std::string_view(shard.lru.back().key));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

template <class Value>
void LruCache<Value>::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->index.clear();
    shard->lru.clear();
  }
}

template <class Value>
ResultCacheStats LruCache<Value>::stats() const {
  ResultCacheStats stats;
  stats.capacity = shard_capacity_ * shards_.size();
  stats.shards = shards_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.disk_hits += shard->disk_hits;
    stats.size += shard->lru.size();
  }
  return stats;
}

template class LruCache<std::string>;
template class LruCache<ScenarioResult>;

}  // namespace greenfpga::scenario
