#ifndef GREENFPGA_SCENARIO_SENSITIVITY_HPP
#define GREENFPGA_SCENARIO_SENSITIVITY_HPP

/// \file sensitivity.hpp
/// Parameter sensitivity over the paper's Table 1 input ranges.
///
/// The paper stresses (§5) that GreenFPGA's outputs inherit the
/// uncertainty of coarse public inputs and exposes every assumption as a
/// knob.  This module quantifies that: one-at-a-time "tornado" analysis
/// and uniform Monte-Carlo sampling over the Table 1 ranges, reporting how
/// the FPGA:ASIC verdict moves.  (An extension beyond the paper's own
/// evaluation, listed in DESIGN.md as ablation support.)
///
/// It also owns `ParameterSampler`, the one Table 1 sampler behind every
/// Monte-Carlo pass in the engine.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "core/lifecycle_model.hpp"
#include "core/param_distributions.hpp"
#include "device/catalog.hpp"
#include "workload/application.hpp"

namespace greenfpga::scenario {

/// One tunable input with its Table 1 range and an applier that writes a
/// sampled value into a ModelSuite.
struct ParameterRange {
  std::string name;
  double low = 0.0;
  double high = 1.0;
  std::function<void(core::ModelSuite&, double)> apply;
};

/// The paper's Table 1, as sweepable ranges.
[[nodiscard]] std::vector<ParameterRange> table1_ranges();

/// The one Table 1 sampler: the montecarlo kind, the fleet and frontier
/// Monte-Carlo passes and the sensitivity kind all draw through it.
/// Parameter names are bound to appliers once, at construction (never per
/// sample: `table1_ranges()` builds ten std::functions).  `draw` then
/// writes sample `index` into a suite: dimension j takes
/// `distribution_j.sample(core::counter_uniform01(seed, index, j))`.  A
/// sample is a pure function of (seed, index), so results do not depend on
/// the worker that draws it, the thread count or the standard library.
class ParameterSampler {
 public:
  /// Bind each distribution to the `table1_ranges()` applier of its
  /// parameter.  Throws std::invalid_argument on an unknown name.
  explicit ParameterSampler(const std::vector<core::ParamDistribution>& distributions);

  /// Uniform over each range's [low, high], written through the range's
  /// own applier (so programmatic ranges sample too).
  explicit ParameterSampler(const std::vector<ParameterRange>& ranges);

  void draw(std::uint64_t seed, std::uint64_t index, core::ModelSuite& suite) const;

 private:
  struct Dimension {
    core::ParamDistribution distribution;
    std::function<void(core::ModelSuite&, double)> apply;
  };
  std::vector<Dimension> dimensions_;
};

/// One-at-a-time sensitivity result for one parameter.
struct TornadoEntry {
  std::string name;
  double ratio_at_low = 0.0;   ///< FPGA:ASIC ratio with the parameter at range-low
  double ratio_at_high = 0.0;  ///< ... at range-high
  /// |ratio_at_high - ratio_at_low|: bar length in a tornado chart.
  [[nodiscard]] double swing() const;
};

/// Evaluate every range one-at-a-time around `base`; entries are returned
/// sorted by descending swing (classic tornado order).  The sensitivity
/// kind runs this with the spec's `sensitivity.ranges`.
[[nodiscard]] std::vector<TornadoEntry> tornado(const core::ModelSuite& base,
                                                const device::DomainTestcase& testcase,
                                                const workload::Schedule& schedule,
                                                const std::vector<ParameterRange>& ranges);

/// Monte-Carlo summary of the FPGA:ASIC ratio distribution.
struct MonteCarloResult {
  int samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// Fraction of samples where the FPGA platform had the lower CFP.
  double fpga_win_fraction = 0.0;
};

/// Sample all ranges uniformly and independently `samples` times through
/// a `ParameterSampler` (sample i is counter-stream sample (seed, i)).
/// Throws std::invalid_argument when `samples` < 1.
[[nodiscard]] MonteCarloResult monte_carlo(const core::ModelSuite& base,
                                           const device::DomainTestcase& testcase,
                                           const workload::Schedule& schedule,
                                           const std::vector<ParameterRange>& ranges,
                                           int samples, unsigned seed = 42);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_SENSITIVITY_HPP
