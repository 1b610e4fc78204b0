#ifndef PERFBENCH_LOAD_HPP
#define PERFBENCH_LOAD_HPP

/// \file load.hpp
/// The HTTP load generator: one thread multiplexing a few keep-alive
/// connections with poll(2), in open loop (requests sent on a fixed
/// schedule and pipelined when a connection is busy, latency timed from
/// the due time) or closed loop (one request in flight per connection).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Trace;

/// One attempted request.  `done_ns == 0` means it never completed.
struct Outcome {
  std::int64_t due_ns = 0;   ///< when it was due (closed loop: when sent)
  std::int64_t sent_ns = 0;  ///< when its bytes were queued on a socket
  std::int64_t done_ns = 0;  ///< when its last response byte arrived
  int status = 0;
  std::uint64_t length = 0;  ///< response body bytes
  std::uint64_t digest = 0;  ///< body_digest of the response body
  std::uint32_t body = 0;    ///< index of the body it sent
};

struct LoadReport {
  std::vector<Outcome> outcomes;  ///< one per attempted request, send order
  double window_s = 0.0;          ///< closed loop: the timed window
  std::size_t backlog_max = 0;    ///< most requests due but not yet answered
  bool backlog_growing = false;   ///< last-quarter backlog well above the first
  std::uint64_t bytes_received = 0;
};

/// Full HTTP request bytes for `POST /v1/run` with `body`.
[[nodiscard]] std::string run_request(const std::string& body);

/// Open loop: request i (sending wires[order[i]]) is due at
/// start + i / rate.  Requests still unanswered `grace_s` after the last
/// one was due are left incomplete.  With `trace`, one span per request
/// (named "serve.http", id `trace_id_base + i`) is recorded as it
/// completes.
[[nodiscard]] LoadReport open_loop(int port, int connections,
                                   const std::vector<std::string>& wires,
                                   const std::vector<std::uint32_t>& order, double rate,
                                   double grace_s, Trace* trace = nullptr,
                                   std::uint64_t trace_id_base = 0);

/// Closed loop for `seconds`: each connection sends the next entry of
/// `order` (from `cursor`, wrapping around) as soon as its previous
/// response arrived.  `cursor` is left after the last entry sent.
[[nodiscard]] LoadReport closed_loop(int port, int connections,
                                     const std::vector<std::string>& wires,
                                     const std::vector<std::uint32_t>& order, double seconds,
                                     std::size_t& cursor);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_HPP
