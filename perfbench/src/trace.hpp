#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// In-memory spans recorded by the benchmark around calls into each
/// layer's public functions.  Spans of one request share an id; a span
/// may name its parent, and a layer's self time is its span's duration
/// minus the time its child spans cover.  Spans are written out as JSON
/// lines when the run ends.

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Trace {
 public:
  struct Span {
    std::uint64_t request = 0;
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the parent span, -1 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t bytes = 0;   ///< bytes the call consumed or produced
  };

  /// Per-name totals over every span with that name.
  struct Totals {
    std::uint64_t count = 0;
    double self_s = 0.0;
    std::uint64_t bytes = 0;
    std::vector<double> self_us;  ///< one entry per span

    [[nodiscard]] double mean_us() const {
      return count == 0 ? 0.0 : self_s * 1e6 / static_cast<double>(count);
    }
    /// Bytes per second of self time, in MB/s.
    [[nodiscard]] double mbps() const {
      return self_s <= 0.0 ? 0.0 : static_cast<double>(bytes) / self_s / 1e6;
    }
  };

  Trace() { spans_.reserve(1 << 16); }

  /// Open a span now; returns its index for `end`.
  int begin(std::uint64_t request, const std::string& name, int parent = -1) {
    spans_.push_back(Span{request, intern(name), parent, now_ns(), 0, 0});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int index, std::uint64_t bytes = 0) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(index)].bytes = bytes;
  }

  /// Record a span whose ends were stamped elsewhere.
  void add(std::uint64_t request, const std::string& name, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t bytes = 0) {
    spans_.push_back(Span{request, intern(name), -1, start_ns, end_ns, bytes});
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Self-time totals keyed by span name.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_s[static_cast<std::size_t>(span.parent)] +=
            seconds_between(span.start_ns, span.end_ns);
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      Totals& totals = out[names_[span.name]];
      const double self = seconds_between(span.start_ns, span.end_ns) - child_s[i];
      ++totals.count;
      totals.self_s += self;
      totals.bytes += span.bytes;
      totals.self_us.push_back(self * 1e6);
    }
    return out;
  }

  /// Write every span as one JSON line: id, name, parent, start/end (ns
  /// from the first span), bytes.
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& span : spans_) {
      out << "{\"id\":" << span.request << ",\"name\":\"" << names_[span.name]
          << "\",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns - origin
          << ",\"end_ns\":" << span.end_ns - origin << ",\"bytes\":" << span.bytes << "}\n";
    }
  }

 private:
  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
    names_.push_back(name);
    return ids_[name] = static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
