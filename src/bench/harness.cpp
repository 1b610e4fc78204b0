#include "bench/harness.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace greenfpga::bench {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

CaseResult run_case(const BenchCase& bench_case, const BenchOptions& options) {
  if (!bench_case.setup) {
    throw std::invalid_argument("bench case '" + bench_case.id() + "': no setup");
  }
  if (options.repetitions < 1) {
    throw std::invalid_argument("bench case '" + bench_case.id() +
                                "': repetitions must be >= 1");
  }
  const PreparedCase prepared = bench_case.setup();
  if (!prepared.op) {
    throw std::invalid_argument("bench case '" + bench_case.id() + "': setup yielded no op");
  }
  if (prepared.iterations < 1) {
    throw std::invalid_argument("bench case '" + bench_case.id() +
                                "': iterations must be >= 1");
  }
  const std::function<std::uint64_t()>& clock =
      options.clock_ns ? options.clock_ns
                       : std::function<std::uint64_t()>(steady_now_ns);

  const auto run_batch = [&prepared] {
    for (std::int64_t i = 0; i < prepared.iterations; ++i) {
      prepared.op();
    }
  };
  // Warmup batches are untimed -- the clock is never consulted, which the
  // fake-clock tests pin (a warmup that read the clock would skew the
  // scripted sample sequence).
  for (int w = 0; w < options.warmup; ++w) {
    run_batch();
  }
  std::vector<double> per_op_seconds;
  per_op_seconds.reserve(static_cast<std::size_t>(options.repetitions));
  for (int r = 0; r < options.repetitions; ++r) {
    const std::uint64_t start = clock();
    run_batch();
    const std::uint64_t stop = clock();
    per_op_seconds.push_back(static_cast<double>(stop - start) * 1e-9 /
                             static_cast<double>(prepared.iterations));
  }
  CaseResult result;
  result.group = bench_case.group;
  result.name = bench_case.name;
  result.warmup = options.warmup;
  result.repetitions = options.repetitions;
  result.iterations = prepared.iterations;
  result.seconds = compute_stats(std::move(per_op_seconds));
  // A zero median (clock granularity under-run) must not divide; such a
  // case needs more iterations per batch, and infinite ops/s would hide
  // that.
  result.ops_per_s = result.seconds.median > 0.0 ? 1.0 / result.seconds.median : 0.0;
  result.bytes_per_s = (prepared.bytes_per_op > 0.0 && result.seconds.median > 0.0)
                           ? prepared.bytes_per_op / result.seconds.median
                           : 0.0;
  return result;
}

Environment capture_environment() {
  Environment env;
  env.cores = static_cast<int>(std::thread::hardware_concurrency());
  std::ostringstream compiler;
#if defined(__clang__)
  compiler << "clang " << __clang_major__ << "." << __clang_minor__ << "."
           << __clang_patchlevel__;
#elif defined(__GNUC__)
  compiler << "gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
           << __GNUC_PATCHLEVEL__;
#elif defined(_MSC_VER)
  compiler << "msvc " << _MSC_VER;
#else
  compiler << "unknown";
#endif
  env.compiler = compiler.str();
#if defined(NDEBUG)
  env.build_type = "release";
#else
  env.build_type = "debug";
#endif
#if defined(__linux__)
  env.os = "linux";
#elif defined(__APPLE__)
  env.os = "darwin";
#elif defined(_WIN32)
  env.os = "windows";
#else
  env.os = "unknown";
#endif
  env.pointer_bits = static_cast<int>(8 * sizeof(void*));
  return env;
}

}  // namespace greenfpga::bench
