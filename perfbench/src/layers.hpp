#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

/// \file layers.hpp
/// The in-process half of the benchmark: the library's public entry
/// points driven directly, with no HTTP.  Reference response bytes for
/// the correctness check, the explore loops, the span replay of
/// `handle_run`'s call order, the `Router::route` replay and the batch
/// thread-scaling record.

#include <cstdint>
#include <string>
#include <vector>

#include "bodies.hpp"
#include "common.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"

namespace perfbench {

class Trace;

/// A response body compared by length and body_digest.
struct Digest {
  std::uint64_t length = 0;
  std::uint64_t digest = 0;
  bool operator==(const Digest&) const = default;
};

/// Parse, build and validate one request body exactly as the daemon does.
[[nodiscard]] greenfpga::scenario::ScenarioSpec spec_of(const std::string& body);

/// The canonical response bytes of body i (Engine::run with no cache ->
/// result_to_json -> dump_to + newline) for every body, or only those
/// with needed[i] when `needed` is given, on `workers` threads with a
/// one-thread engine each.
[[nodiscard]] std::vector<Digest> reference_digests(const std::vector<std::string>& bodies,
                                                    int workers,
                                                    const std::vector<char>& needed = {});

/// Closed loop of Engine::run_batch over `specs` then result_to_json +
/// dump_to of each result, batch after batch, for `seconds` (at least
/// three batches).  Output bytes are checked against `expected` outside
/// the timed region.
struct BatchLoop {
  std::size_t specs = 0;          ///< specs executed and serialized
  std::vector<double> batch_s;    ///< time of each batch
  std::size_t mismatches = 0;
  /// Specs per second of the median batch.
  [[nodiscard]] double specs_per_s() const {
    return batch_s.empty() ? 0.0 : static_cast<double>(specs / batch_s.size()) / median(batch_s);
  }
};
/// With `trace`, each batch is a span tree with id `id_base` + batch.
[[nodiscard]] BatchLoop batch_loop(const std::vector<greenfpga::scenario::ScenarioSpec>& specs,
                                   const std::vector<Digest>& expected, int threads,
                                   double seconds, Trace* trace = nullptr,
                                   std::uint64_t id_base = 0);

/// `callers` closed-loop threads, each running Engine::run (one thread)
/// + serialization on the next spec of `specs`, for `seconds`.
struct CallerLoop {
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  std::size_t mismatches = 0;
};
[[nodiscard]] CallerLoop caller_loop(const std::vector<greenfpga::scenario::ScenarioSpec>& specs,
                                     const std::vector<Digest>& expected, int callers,
                                     double seconds);

/// Replay requests `order[i]` of `set` through the public calls in
/// `handle_run`'s order: io.parse, spec.build, engine.key, cache.lookup,
/// then on a miss engine.execute.<kind>, result_io.to_json, io.dump and
/// cache.insert.  Without a cache the key and cache steps are skipped.
/// Execution runs on an engine with `threads` workers and no cache.
/// Spans carry id `id_base + i` under a "request" root.
void replay_handle_run(const BodySet& set, const std::vector<std::uint32_t>& order,
                       greenfpga::scenario::ResultCache* cache, int threads, Trace& trace,
                       std::uint64_t id_base);

/// Route `order[i]` of `set` as POST /v1/run through a router over an
/// in-process ServeContext (first warmed with `warm`), one
/// "serve.route" span per request (id `id_base + i`).
void replay_route(const BodySet& set, const std::vector<std::uint32_t>& order,
                  const std::vector<std::string>& warm, std::size_t cache_capacity,
                  Trace& trace, std::uint64_t id_base);

/// run_batch wall time at 1, 2 and `threads` workers, and the summed
/// per-spec Engine::run time at `threads`, each the median of repeats.
struct BatchScaling {
  double batch_ms_1 = 0.0;
  double batch_ms_2 = 0.0;
  double batch_ms_n = 0.0;
  double sequential_ms_n = 0.0;
};
[[nodiscard]] BatchScaling batch_scaling(const std::vector<greenfpga::scenario::ScenarioSpec>& specs,
                                         int threads, double seconds_each);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
