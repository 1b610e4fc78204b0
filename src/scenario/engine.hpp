#ifndef GREENFPGA_SCENARIO_ENGINE_HPP
#define GREENFPGA_SCENARIO_ENGINE_HPP

/// \file engine.hpp
/// The unified evaluation engine: one entry point for every scenario.
///
/// `Engine::run(spec)` dispatches a declarative `ScenarioSpec` to the
/// lifecycle models and returns a `ScenarioResult`:
///
///   * compare / sweep / grid specs evaluate every (platform, scenario
///     point) pair, with independent points executed **in parallel** on a
///     worker pool (each worker owns its own `LifecycleModel` copy, whose
///     memoised embodied-carbon sub-results make a 50x50 heat-map compute
///     fab/package/EOL once per platform instead of 2500 times);
///   * timeline / breakeven / node_dse / sensitivity specs dispatch to the
///     corresponding scenario primitives (node-DSE candidates also run on
///     the pool).
///
/// Results are **bit-identical across thread counts**: every point is
/// computed by the same deterministic code from the same inputs, and
/// workers write to pre-sized slots (pinned by tests/engine_test.cpp).
/// The engine holds no cache: it maps spec -> result, and `greenfpga
/// serve` caches the rendered bytes under `content_key`.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "device/platform_registry.hpp"
#include "scenario/breakeven.hpp"
#include "scenario/heatmap.hpp"
#include "scenario/node_dse.hpp"
#include "scenario/sensitivity.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/timeline.hpp"

namespace greenfpga::scenario {

/// Engine construction knobs.
struct EngineOptions {
  /// Worker count for independent points; 0 means `Engine::default_threads()`
  /// (the `GREENFPGA_THREADS` environment variable, else hardware
  /// concurrency).  Clamped to `Engine::kMaxThreads`.  Results do not
  /// depend on this value.
  int threads = 0;
  /// Platform-name resolver; nullptr means `PlatformRegistry::builtins()`.
  /// The registry must outlive the engine.
  const device::PlatformRegistry* registry = nullptr;
};

/// One evaluated scenario point: axis coordinates plus every platform's
/// lifecycle result (in `ScenarioSpec::platforms` order).
struct EvalPoint {
  std::vector<double> coords;
  std::vector<core::PlatformCfp> platforms;

  /// Total-CFP ratio of platform `index` over platform `baseline`.
  [[nodiscard]] double ratio(std::size_t index, std::size_t baseline = 0) const;
};

/// Closed-form breakeven solves (nullopt = not requested or no crossover).
struct BreakevenReport {
  std::optional<double> app_count;
  std::optional<double> lifetime_years;
  std::optional<double> volume;
};

/// Summary statistics of one Monte-Carlo-sampled metric.
struct UqStat {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n - 1)
  /// One value per requested percentile (`MonteCarloUq::percentiles`),
  /// linearly interpolated over the sorted samples.
  std::vector<double> percentile_values;
};

/// Mean / sample stddev / interpolated percentiles (in percent) of one
/// sampled metric.  The single definition shared by the montecarlo kind
/// and the sensitivity module's Monte-Carlo summary, so the two reports
/// can never disagree on what a percentile means.  Requires at least one
/// value; sorts internally.
[[nodiscard]] UqStat summarise_samples(std::vector<double> values,
                                       const std::vector<double>& percentiles);

/// Monte-Carlo uncertainty quantification over the spec's platform set:
/// every metric the point estimate produced, as a sampled distribution.
/// Produced by the montecarlo kind; bit-identical for any thread count
/// (counter-based per-sample RNG streams, pre-sized result slots).
struct MonteCarloUq {
  int samples = 0;
  std::vector<double> percentiles;     ///< requested percentiles, in percent
  std::vector<UqStat> platform_total;  ///< total CFP [kg CO2e], spec platform order
  /// Total-CFP ratio of platform p over the baseline (platform 0); entry
  /// k describes platform k + 1.  Empty with fewer than two platforms.
  std::vector<UqStat> ratio;
  /// Fraction of samples where platform k + 1 beats (is below) the
  /// baseline; aligned with `ratio`.
  std::vector<double> win_fraction;
  /// Raw per-sample totals [kg CO2e], [platform][sample] in sample order
  /// (sample i is reproducible in isolation from the seed alone): the CSV
  /// export and CDF charts read these.
  std::vector<std::vector<double>> sample_totals_kg;

  /// Per-sample ratio series of platform `index` over the baseline,
  /// in sample order.
  [[nodiscard]] std::vector<double> ratio_samples(std::size_t index = 1) const;
};

/// One evaluated frontier cell.
struct FrontierCell {
  std::vector<double> coords;        ///< one per axis, spec axis order
  std::vector<double> objective_kg;  ///< per platform; +inf = infeasible here
  int winner = -1;                   ///< platform index; -1 = no feasible platform
  /// Runner-up objective over winner objective (>= 1); +inf with fewer
  /// than two feasible platforms.  1 means a contested cell.
  double margin = 0.0;
  /// Fraction of confidence samples agreeing with `winner`; 1 when the
  /// confidence pass is disabled.
  double confidence = 1.0;
};

/// Win fractions across one slice of one frontier axis.
struct FrontierSlice {
  std::size_t axis = 0;              ///< index into spec.frontier.axes
  double value = 0.0;                ///< the axis coordinate of this slice
  std::vector<double> win_fraction;  ///< per platform, over the slice's cells
};

/// One breakeven boundary between two platforms (2-axis frontiers only):
/// the interpolated points where the pairwise objective difference
/// crosses zero, sorted lexicographically by (x, y) for determinism.
struct FrontierBoundary {
  int platform_a = 0;  ///< lower platform index of the pair
  int platform_b = 0;  ///< higher platform index of the pair
  std::vector<std::array<double, 2>> points;  ///< (axis0, axis1) coordinates
};

/// The frontier kind's output: per-cell winners and the win-region
/// structure (counts, slices, boundaries).  The spec and platform names
/// are the enclosing result's.
struct FrontierResult {
  std::vector<std::vector<double>> axis_values;  ///< materialised, per axis
  /// Row-major cells: axis 0 is the innermost (fastest-varying) dimension.
  std::vector<FrontierCell> cells;
  std::vector<std::size_t> win_counts;  ///< per platform
  std::vector<double> win_fraction;     ///< per platform, over all cells
  std::size_t infeasible_cells = 0;     ///< cells with no feasible platform
  std::vector<FrontierSlice> slices;    ///< every (axis, value) slice
  std::vector<FrontierBoundary> boundaries;  ///< 2-axis grids only
  int confidence_samples = 0;
};

/// The engine's output: the resolved spec plus the kind-dependent payload.
struct ScenarioResult {
  ScenarioSpec spec;                            ///< as run (platforms defaulted)
  std::vector<std::string> platform_names;      ///< one per spec platform
  std::vector<device::ChipSpec> resolved_chips; ///< one per spec platform

  /// compare: 1 point; sweep: one per axis sample; grid: row-major with
  /// axis 1 (y) outer, axis 0 (x) inner.
  std::vector<EvalPoint> points;

  std::optional<TimelineSeries> timeline;       ///< timeline kind
  std::vector<NodeCandidate> candidates;        ///< node_dse kind, ranked
  std::vector<TornadoEntry> tornado;            ///< sensitivity kind
  std::optional<MonteCarloResult> monte_carlo;  ///< sensitivity kind
  std::optional<BreakevenReport> breakeven;     ///< breakeven kind
  std::optional<MonteCarloUq> uncertainty;      ///< montecarlo kind (and fleet MC)
  std::optional<FrontierResult> frontier;       ///< frontier kind
  std::optional<FleetResult> fleet;             ///< fleet kind

  // -- ASIC/FPGA views (throw std::logic_error when the shape does not
  //    match, e.g. no ASIC/FPGA platform pair) --------------------------------
  [[nodiscard]] core::Comparison comparison() const;  ///< compare kind
  [[nodiscard]] SweepSeries sweep_series() const;     ///< sweep kind
  [[nodiscard]] Heatmap heatmap() const;              ///< grid kind

  /// Index of the first platform of `kind`, if any.
  [[nodiscard]] std::optional<std::size_t> platform_index(device::ChipKind kind) const;
};

/// The unified evaluation engine.
class Engine {
 public:
  /// Upper bound on the worker count (a pool is spawned per run; an
  /// unbounded request would otherwise spawn one OS thread per grid
  /// point).
  static constexpr int kMaxThreads = 256;

  explicit Engine(EngineOptions options = {});

  /// A spec validated and platform-resolved once, with the grid profile
  /// applied: the front half of every evaluation.  Callers that key a
  /// cache prepare once, take `content_key`, and on a miss hand the same
  /// prepared run to `run` / `run_batch`.
  struct PreparedRun {
    ScenarioResult result;   ///< spec as run, platform names, resolved chips
    core::ModelSuite suite;  ///< effective suite (grid profile applied)
  };

  /// The content-address of a prepared run (see `cache_key`).
  struct ContentKey {
    std::string bytes;
    /// FNV-1a of `bytes`, computed in the same pass that serialized them
    /// (hash-while-dump): the compact fingerprint serve surfaces as
    /// X-Cache-Key without re-hashing the key bytes.
    std::uint64_t fingerprint = 0;
  };

  /// Validate `spec`, resolve its platforms through the registry and
  /// apply its grid profile.  Throws on an invalid spec.
  [[nodiscard]] PreparedRun prepare(const ScenarioSpec& spec) const;

  /// The content key of a prepared run: the compact canonical JSON of the
  /// as-run spec (platforms defaulted, model suite embedded) plus the
  /// registry-resolved platform chips.  Everything the deterministic
  /// answer depends on is in these bytes.
  [[nodiscard]] static ContentKey content_key(const PreparedRun& prepared);

  /// `content_key(prepare(spec)).bytes`.  Two specs share a key exactly
  /// when the engine computes byte-identical results for them; resolving
  /// through the registry keeps engines with different registries from
  /// colliding on a name.  Throws on an invalid spec, like `run`.
  [[nodiscard]] std::string cache_key(const ScenarioSpec& spec) const;

  /// Evaluate one scenario: prepare it, then dispatch on kind.  The
  /// engine keeps no cache; serve caches rendered bodies by content key.
  [[nodiscard]] ScenarioResult run(const ScenarioSpec& spec) const;

  /// Evaluate an already prepared scenario.
  [[nodiscard]] ScenarioResult run(PreparedRun prepared) const;

  /// Evaluate many specs as one batch, returning results in spec order.
  ///
  /// The batch flattens every spec's independent work items -- one task
  /// per scenario point (compare/sweep/grid), one per Monte-Carlo sample
  /// (montecarlo), one per remaining spec (timeline, breakeven, node_dse,
  /// sensitivity) -- onto a single worker pool, so spec-level and
  /// point-level work share the same `threads()` workers instead of
  /// serialising spec-by-spec.  Each worker keeps one `LifecycleModel`
  /// per distinct effective model suite, so the embodied-carbon
  /// memoisation is shared across every spec evaluating the same
  /// platform set under the same suite.
  ///
  /// Results are bit-identical to running each spec individually at any
  /// thread count: every task computes from its spec's inputs alone and
  /// writes a pre-sized slot (pinned by tests/golden_results_test.cpp).
  /// A failing spec fails the whole batch with that spec's error.  Every
  /// spec is evaluated, repeats included: deduplication is the caller's
  /// (serve looks each distinct content key up once and batches only the
  /// misses).
  [[nodiscard]] std::vector<ScenarioResult> run_batch(
      const std::vector<ScenarioSpec>& specs) const;

  /// `run_batch` over already prepared scenarios.
  [[nodiscard]] std::vector<ScenarioResult> run_batch(
      std::vector<PreparedRun> prepared) const;

  [[nodiscard]] int threads() const { return threads_; }

  /// GREENFPGA_THREADS (>= 1) when set and parseable, else hardware
  /// concurrency (>= 1).
  [[nodiscard]] static int default_threads();

 private:
  [[nodiscard]] const device::PlatformRegistry& registry() const;

  int threads_ = 1;
  const device::PlatformRegistry* registry_ = nullptr;
};

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_ENGINE_HPP
