#ifndef GREENFPGA_CORE_PARALLEL_HPP
#define GREENFPGA_CORE_PARALLEL_HPP

/// \file parallel.hpp
/// The deterministic worker-pool primitive shared by the evaluation
/// subsystems (`scenario::Engine` and its kinds, the batch runner).
///
/// One contract, stated once: work items are independent, each writes to
/// a pre-sized slot of its own, and every item is computed by the same
/// deterministic code from the same inputs -- so results are bit-identical
/// for ANY worker count.  The pool only changes *which thread* computes a
/// slot, never *what* is computed.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace greenfpga::core {

/// Run `fn(state, index)` for every index in [0, n) on up to `threads`
/// workers, where each worker owns a private `state = make_state()`.
/// Work items are independent and write to disjoint slots, so results are
/// identical for any worker count; the first exception is rethrown on the
/// caller's thread.
template <typename MakeState, typename Fn>
void parallel_for_state(std::size_t n, int threads, MakeState&& make_state, Fn&& fn) {
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(std::max(threads, 1)), n));
  if (workers <= 1) {
    auto state = make_state();
    for (std::size_t i = 0; i < n; ++i) {
      fn(state, i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      // The whole body (state construction included -- suite validation
      // can throw) stays inside the try: an exception escaping a thread
      // would call std::terminate instead of reporting a runtime error.
      try {
        auto state = make_state();
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) {
            return;
          }
          fn(state, i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // drain remaining work
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace greenfpga::core

#endif  // GREENFPGA_CORE_PARALLEL_HPP
