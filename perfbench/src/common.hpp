#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

/// \file common.hpp
/// Small shared pieces of the benchmark program: the clock, a seeded
/// PRNG whose streams do not depend on the standard library, a fast
/// body digest, and order statistics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// splitmix64: a full-period 64-bit generator.  Every stream is derived
/// from (seed, purpose, index), so body `i` of a workload is the same
/// bytes no matter how many other bodies were generated before it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1) from the top 53 bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] (inclusive).
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool chance(double p) { return uniform() < p; }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[next() % items.size()];
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from a base seed and two tags.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                                 std::uint64_t index) {
  Rng mixer(seed ^ (purpose * 0xd6e8feb86659fd93ULL));
  mixer.next();
  Rng inner(mixer.next() ^ (index * 0x9e3779b97f4a7c15ULL));
  return inner.next();
}

/// A 64-bit digest of response bytes: four independent multiply-rotate
/// lanes over 8-byte words (the xxh64 round), so a 700 KB body digests
/// in well under 100 us on the load-generator thread.  Bodies are
/// compared by (length, digest).
inline std::uint64_t body_digest(std::string_view bytes) {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  auto round = [](std::uint64_t acc, std::uint64_t word) {
    acc += word * kP2;
    acc = (acc << 31) | (acc >> 33);
    return acc * kP1;
  };
  std::uint64_t lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 32) {
    for (std::uint64_t& lane : lanes) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, 8);
      lane = round(lane, word);
      p += 8;
    }
    n -= 32;
  }
  std::uint64_t h = bytes.size();
  for (const std::uint64_t lane : lanes) {
    h = round(h ^ lane, lane);
  }
  for (; n > 0; --n, ++p) {
    h = round(h, static_cast<unsigned char>(*p));
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  return h;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
