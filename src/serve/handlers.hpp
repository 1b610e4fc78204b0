#ifndef GREENFPGA_SERVE_HANDLERS_HPP
#define GREENFPGA_SERVE_HANDLERS_HPP

/// \file handlers.hpp
/// The `greenfpga serve` API surface over the evaluation engine.
///
/// Endpoints (all bodies JSON; non-2xx bodies are `{"error": ...}`):
///
///   * `POST /v1/run`    -- one scenario spec in (the `greenfpga run`
///     spec shape), the canonical result JSON out, **byte-identical to
///     `greenfpga run --format json`** on the same spec (pinned by
///     tests/serve_test.cpp), cache hits included.  The `X-Cache` header
///     reports `hit` or `miss`, `X-Cache-Key` the spec's content digest,
///     and `X-Request-Digest` the canonical digest of the request body
///     when hash-while-parse could compute it (keys arrived sorted).
///   * `POST /v1/batch`  -- `{"specs": [<spec>, ...]}` in, the array of
///     canonical result JSONs out (spec order), spliced from the same
///     per-spec bytes `/v1/run` answers with; repeated and previously
///     seen specs come from the cache.
///   * `GET /v1/platforms` -- registry platform names and known domains.
///   * `GET /v1/stats`   -- cache hit/miss/eviction counters, occupancy,
///     request counts, `fast_path_hits` (`/v1/run` bodies streamed from
///     the byte cache), engine worker count.
///   * `GET /healthz`    -- liveness: `{"status":"ok"}`.
///
/// Request bodies parse into the arena DOM (io/json_arena.hpp): one
/// monotonic buffer per request, freed wholesale, with the canonical
/// FNV-1a digest computed during the parse.  The one cache is a sharded
/// LRU of rendered canonical response bodies (`scenario::BodyCache`),
/// keyed by the engine's content key; the engine itself caches nothing.
/// A request prepares its spec once and keys it; a hit streams the
/// cached bytes, a miss evaluates that prepared run, renders it once and
/// inserts it.  With `--cache-dir` the bodies persist verbatim on disk
/// (scenario/cache_store.hpp), so a restarted daemon answers from disk
/// with no parse.
///
/// Spec parse/validation failures answer 400 with the same
/// offending-key-naming message the CLI prints; over-limit or malformed
/// HTTP answers 4xx at the transport layer (serve/http.hpp).  Every
/// handler is safe under concurrent requests: the engine is stateless,
/// the cache is thread-safe, and the counters are atomic.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "scenario/cache_store.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "serve/router.hpp"

namespace greenfpga::serve {

/// Shared state behind one serving process: the content-addressed body
/// cache (sharded; optionally disk-backed) and the engine whose results
/// it holds, plus request counters.  Construct once, then build the
/// router over it; must outlive the server.
class ServeContext {
 public:
  /// A non-empty `cache_dir` attaches a disk tier (created if absent;
  /// throws std::runtime_error when unusable), so a restarted daemon
  /// keeps its previously rendered bodies.
  explicit ServeContext(scenario::EngineOptions engine_options = {},
                        std::size_t cache_capacity = 1024,
                        std::size_t cache_shards = 8,
                        const std::string& cache_dir = "");

  [[nodiscard]] scenario::BodyCache& cache() { return cache_; }
  [[nodiscard]] const scenario::Engine& engine() const { return engine_; }
  /// The registry the engine resolves platform names against.
  [[nodiscard]] const device::PlatformRegistry& registry() const { return *registry_; }

  std::atomic<std::uint64_t> requests{0};  ///< routed requests
  std::atomic<std::uint64_t> errors{0};    ///< non-2xx responses
  /// `/v1/run` responses streamed from the byte cache (memory or disk):
  /// no evaluation, no dump.  Surfaced in `/v1/stats`.
  std::atomic<std::uint64_t> fast_path_hits{0};

 private:
  /// Declaration order is load-bearing: the store outlives the cache
  /// that points at it.
  std::optional<scenario::CacheStore> store_;
  scenario::BodyCache cache_;
  scenario::Engine engine_;
  const device::PlatformRegistry* registry_;
};

/// Build the dispatch table over `context` (which must outlive the
/// returned router and any server running it).
[[nodiscard]] Router make_router(ServeContext& context);

}  // namespace greenfpga::serve

#endif  // GREENFPGA_SERVE_HANDLERS_HPP
