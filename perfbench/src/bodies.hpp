#ifndef PERFBENCH_BODIES_HPP
#define PERFBENCH_BODIES_HPP

/// \file bodies.hpp
/// The seeded request-body generator.
///
/// Every workload's input is a list of distinct bodies plus a request
/// sequence over them, both a pure function of the seed and the
/// workload's entry in workloads.json: the same seed gives the same
/// bytes.  Generated specs are written with canonical sorted keys at
/// every level (so the daemon's hash-while-parse digest applies to
/// them); the example spec files are sent verbatim, comments and
/// unsorted keys included.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

/// Inclusive [lo, hi] bounds of one generated size parameter.
struct Span2 {
  int lo = 1;
  int hi = 1;
};

/// Size caps of the generated specs (workloads.json "caps").
struct Caps {
  Span2 platforms{2, 3};          ///< multi-platform kinds
  Span2 sweep_points{8, 16};
  Span2 grid_side{4, 10};
  Span2 mc_samples{16, 64};
  Span2 frontier_side{4, 6};
  Span2 frontier_confidence{0, 8};
  Span2 fleet_mc_samples{0, 32};
  Span2 sensitivity_samples{32, 64};
  Span2 dse_nodes{3, 6};          ///< 0 = every node in the database
  Span2 app_count{1, 10};         ///< schedule N_app
  Span2 fleet_regions{1, 2};
  Span2 fleet_services{1, 2};
  /// Registry platforms the multi-platform kinds draw from.
  std::vector<std::string> platform_pool{"asic", "fpga", "gpu", "cpu", "chiplet_fpga"};
  /// Variables sweep/grid/frontier axes draw from (at least two).
  std::vector<std::string> axis_variables{"app_count", "lifetime_years", "volume"};
};

/// A kind mix: `weight` bodies of each kind per block of
/// sum(weights); each block's order is shuffled with the seed, so the
/// proportions hold exactly over every whole block.
struct Mix {
  std::vector<std::pair<std::string, int>> kinds;
  Caps caps;
};

[[nodiscard]] Mix mix_from_json(const greenfpga::io::Json& json);

/// The distinct bodies of one workload and the order they are sent in.
struct BodySet {
  std::vector<std::string> bodies;   ///< distinct request bodies
  std::vector<std::string> kinds;    ///< scenario kind of each body
  std::vector<std::uint32_t> order;  ///< request i sends bodies[order[i]]
};

/// One generated spec of `kind`, sorted keys, named `name`.
[[nodiscard]] std::string make_spec(const std::string& kind, std::uint64_t stream,
                                    const Caps& caps, const std::string& name);

/// `count` distinct generated specs following `mix` from stream
/// `purpose`, sent in body order (every request a distinct body).
[[nodiscard]] BodySet generate(const Mix& mix, std::uint64_t seed, std::uint64_t purpose,
                               std::size_t count, const std::string& name_prefix);

/// An example spec file: its verbatim bytes and its kind.
struct ExampleSpec {
  std::string body;
  std::string kind;
};

[[nodiscard]] std::vector<ExampleSpec> load_examples(const std::string& directory);

/// serve_hot: the examples plus `generated` small specs; request i picks
/// an example with probability `example_share`, else a generated spec,
/// uniformly within either group.
[[nodiscard]] BodySet hot_set(const std::vector<ExampleSpec>& examples, const Mix& mix,
                              std::size_t generated, double example_share,
                              std::uint64_t seed, std::size_t requests);

}  // namespace perfbench

#endif  // PERFBENCH_BODIES_HPP
