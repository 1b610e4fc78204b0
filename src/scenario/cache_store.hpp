#ifndef GREENFPGA_SCENARIO_CACHE_STORE_HPP
#define GREENFPGA_SCENARIO_CACHE_STORE_HPP

/// \file cache_store.hpp
/// Content-addressed disk persistence for cached response bodies.
///
/// `greenfpga serve` keeps its hot set in the in-memory `BodyCache`; a
/// restart used to start cold.  The store writes each cached body to
/// `<dir>/<hex64-fnv1a-of-key>.json` so a restarted daemon re-answers a
/// previously evaluated spec from disk (and re-promotes it to memory)
/// instead of re-running the engine.
///
/// A file is the full content key on its first line, then the body
/// verbatim.  The key is compact canonical JSON, which holds no raw
/// newline, so the first line is unambiguous.  The file name is only the
/// 64-bit *fingerprint* of the key (io::content_digest's hex), which is
/// not collision-proof, so `load` compares the key line: a fingerprint
/// collision -- like a foreign, empty or hand-edited file, or an entry in
/// an older format -- is a miss, never a wrong answer.  A disk hit is a
/// file read plus that compare; nothing is parsed.  Writes go to a unique
/// temp file and rename into place (atomic within one directory): readers
/// never observe a half-written entry, even across a crash.
///
/// The store is append-only from the daemon's point of view: eviction
/// from the memory tier does not unlink files (disk is the durable tier;
/// operators prune the directory like any cache dir).  All methods are
/// thread-safe and never throw -- persistence is an optimization, so IO
/// failures degrade to miss / not-saved.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace greenfpga::scenario {

class CacheStore {
 public:
  /// Persist under `directory`, created (with parents) if absent.
  /// Throws std::runtime_error when the directory cannot be created or
  /// is not writable -- a misconfigured `--cache-dir` should fail at
  /// startup, not degrade silently forever.
  explicit CacheStore(std::string directory);

  /// Where `key`'s entry lives (exposed for tests and operators).
  [[nodiscard]] std::string path_for(const std::string& key) const;

  /// Write `key -> body` durably.  Best-effort: returns false (and
  /// leaves no partial file visible) on any IO failure.
  bool save(const std::string& key, const std::string& body) noexcept;

  /// The stored body for `key`, or nullptr when absent, unreadable,
  /// empty, or recorded under a different full key.  Never throws.
  [[nodiscard]] std::shared_ptr<const std::string> load(
      const std::string& key) const noexcept;

  [[nodiscard]] const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
  /// Distinguishes concurrent writers' temp files for the same key.
  mutable std::atomic<std::uint64_t> temp_sequence_{0};
};

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_CACHE_STORE_HPP
