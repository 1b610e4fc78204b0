/// \file cache_store.cpp
/// Content-addressed on-disk body entries: temp-write + rename, compare
/// the key line on load.

#include "scenario/cache_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/hash.hpp"

namespace greenfpga::scenario {

namespace fs = std::filesystem;

CacheStore::CacheStore(std::string directory) : directory_(std::move(directory)) {
  if (directory_.empty()) {
    throw std::runtime_error("CacheStore: empty cache directory");
  }
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw std::runtime_error("CacheStore: cannot create cache directory '" +
                             directory_ + "'" + (ec ? ": " + ec.message() : ""));
  }
}

std::string CacheStore::path_for(const std::string& key) const {
  return (fs::path(directory_) / (io::hex64(io::fnv1a64(key)) + ".json")).string();
}

bool CacheStore::save(const std::string& key, const std::string& body) noexcept {
  try {
    const std::string final_path = path_for(key);
    const std::string temp_path =
        final_path + ".tmp." +
        std::to_string(temp_sequence_.fetch_add(1, std::memory_order_relaxed));
    {
      std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        return false;
      }
      out.write(key.data(), static_cast<std::streamsize>(key.size()));
      out.put('\n');
      out.write(body.data(), static_cast<std::streamsize>(body.size()));
      // A small entry sits in the stream buffer until close() flushes it,
      // so only the stream state after the close says it reached the disk.
      out.close();
      if (out.fail()) {
        std::remove(temp_path.c_str());
        return false;
      }
    }
    std::error_code ec;
    fs::rename(temp_path, final_path, ec);
    if (ec) {
      std::remove(temp_path.c_str());
      return false;
    }
    return true;
  } catch (...) {
    return false;
  }
}

std::shared_ptr<const std::string> CacheStore::load(const std::string& key) const noexcept {
  try {
    std::ifstream in(path_for(key), std::ios::binary | std::ios::ate);
    if (!in) {
      return nullptr;  // not persisted (the common cold-key case)
    }
    const std::streamoff size = in.tellg();
    const auto head = static_cast<std::streamoff>(key.size() + 1);
    if (size <= head) {
      return nullptr;  // too short for this key line plus a body
    }
    in.seekg(0);
    std::string line(key.size() + 1, '\0');
    if (!in.read(line.data(), head) || line.back() != '\n' ||
        line.compare(0, key.size(), key) != 0) {
      return nullptr;  // fingerprint collision, foreign or older-format file
    }
    auto body = std::make_shared<std::string>(static_cast<std::size_t>(size - head), '\0');
    if (!in.read(body->data(), size - head)) {
      return nullptr;
    }
    return body;
  } catch (...) {
    return nullptr;
  }
}

}  // namespace greenfpga::scenario
