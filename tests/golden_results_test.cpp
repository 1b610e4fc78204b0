/// Golden regression suite for the structured result pipeline: pins the
/// canonical `--format json` output (`scenario::result_to_json`) of
/// every scenario kind against checked-in snapshots in tests/golden/,
/// the canonical text being a fixed point of parse -> dump (what
/// `greenfpga batch --validate` checks), thread-count invariance of the JSON bytes, and `Engine::run_batch`
/// bit-identity against individual runs.
///
/// Regenerate deliberately with GREENFPGA_REGEN_GOLDEN=1 (see
/// golden_test_util.hpp).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "golden_test_util.hpp"
#include "io/json.hpp"
#include "report/result_frame.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::scenario {
namespace {

using greenfpga::testing::check_against_golden;

/// Small, fast specs -- one per kind -- chosen so the snapshots stay
/// reviewable (a handful of points/samples each).
ScenarioSpec spec_for(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::compare: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::crypto);
      spec.name = "golden compare";
      spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                        PlatformRef{.name = "gpu"}};
      return spec;
    }
    case ScenarioKind::sweep: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden sweep";
      spec.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 4, 4)};
      return spec;
    }
    case ScenarioKind::grid: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden grid";
      spec.axes = {AxisSpec::log(SweepVariable::volume, 1e5, 1e6, 2),
                   AxisSpec::linear(SweepVariable::lifetime_years, 0.5, 1.5, 3)};
      return spec;
    }
    case ScenarioKind::timeline: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden timeline";
      spec.timeline.horizon_years = 20.0;
      spec.timeline.step_years = 1.0;
      return spec;
    }
    case ScenarioKind::node_dse: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::crypto);
      spec.name = "golden node_dse";
      return spec;
    }
    case ScenarioKind::breakeven: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden breakeven";
      return spec;
    }
    case ScenarioKind::sensitivity: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::imgproc);
      spec.name = "golden sensitivity";
      spec.sensitivity.samples = 32;
      spec.sensitivity.seed = 7;
      return spec;
    }
    case ScenarioKind::montecarlo: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden montecarlo";
      spec.montecarlo.samples = 16;
      spec.montecarlo.seed = 3;
      return spec;
    }
    case ScenarioKind::frontier: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden frontier";
      spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                        PlatformRef{.name = "gpu"}, PlatformRef{.name = "cpu"}};
      spec.frontier.axes = {
          AxisSpec::linear(SweepVariable::app_count, 1, 4, 4),
          AxisSpec::log(SweepVariable::volume, 1e4, 1e6, 3)};
      spec.frontier.confidence_samples = 8;
      spec.frontier.seed = 11;
      return spec;
    }
    case ScenarioKind::fleet: {
      ScenarioSpec spec = ScenarioSpec::make(kind, device::Domain::dnn);
      spec.name = "golden fleet";
      spec.fleet->mc_samples = 8;
      spec.montecarlo.seed = 5;
      return spec;
    }
  }
  throw std::logic_error("spec_for: unknown kind");
}

const std::vector<ScenarioKind>& all_kinds() {
  static const std::vector<ScenarioKind> kinds{
      ScenarioKind::compare,   ScenarioKind::sweep,     ScenarioKind::grid,
      ScenarioKind::timeline,  ScenarioKind::node_dse,  ScenarioKind::breakeven,
      ScenarioKind::sensitivity, ScenarioKind::montecarlo, ScenarioKind::frontier,
      ScenarioKind::fleet};
  return kinds;
}

ScenarioResult run_kind(ScenarioKind kind, int threads = 1) {
  const Engine engine(EngineOptions{.threads = threads});
  return engine.run(spec_for(kind));
}

class GoldenResults : public ::testing::TestWithParam<ScenarioKind> {};

TEST_P(GoldenResults, CanonicalJsonMatchesSnapshot) {
  const ScenarioKind kind = GetParam();
  check_against_golden("result_" + to_string(kind),
                       result_to_json(run_kind(kind)));
}

TEST_P(GoldenResults, RoundTripsThroughJsonValueAndText) {
  const std::string text = result_to_json(run_kind(GetParam())).dump();
  // The canonical text is a fixed point: parse -> re-serialize is
  // byte-identical (shortest round-trip numbers, sorted keys), pretty and
  // compact alike.
  EXPECT_EQ(io::parse_json(text).dump(), text);
  const std::string compact = io::parse_json(text).dump(0);
  EXPECT_EQ(io::parse_json(compact).dump(0), compact);
}

TEST_P(GoldenResults, JsonBytesAreThreadCountInvariant) {
  const std::string base = result_to_json(run_kind(GetParam(), 1)).dump();
  EXPECT_EQ(result_to_json(run_kind(GetParam(), 2)).dump(), base);
  EXPECT_EQ(result_to_json(run_kind(GetParam(), 8)).dump(), base);
}

TEST_P(GoldenResults, LowersIntoAtLeastOneFrame) {
  const ScenarioResult result = run_kind(GetParam());
  const std::vector<report::ResultFrame> frames = to_frames(result);
  ASSERT_FALSE(frames.empty());
  for (const report::ResultFrame& frame : frames) {
    EXPECT_FALSE(frame.name.empty());
    EXPECT_FALSE(frame.columns.empty());
    for (const std::vector<report::Cell>& row : frame.rows) {
      EXPECT_EQ(row.size(), frame.columns.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GoldenResults,
                         ::testing::ValuesIn(all_kinds()),
                         [](const ::testing::TestParamInfo<ScenarioKind>& info) {
                           return to_string(info.param);
                         });

/// A volume x node frontier with a confidence pass.  The per-kind spec
/// above covers app_count x volume only; this one pins the node axis, its
/// JSON form, and a platform that cannot be built on every node (the
/// 600 mm^2 DNN FPGA does not fit the reticle at 28 nm).
ScenarioSpec frontier_node_spec() {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::frontier, device::Domain::dnn);
  spec.name = "golden frontier node";
  spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                    PlatformRef{.name = "gpu"}};
  spec.frontier.axes = {
      AxisSpec::log(SweepVariable::volume, 1e4, 1e6, 3),
      AxisSpec::node_list(
          {tech::ProcessNode::n28, tech::ProcessNode::n14, tech::ProcessNode::n7,
           tech::ProcessNode::n5})};
  spec.frontier.confidence_samples = 6;
  spec.frontier.seed = 13;
  return spec;
}

TEST(GoldenResults, FrontierNodeAxisMatchesSnapshot) {
  // Through the spec JSON, so the node-axis reader and writer are pinned too.
  const ScenarioSpec spec = spec_from_json(spec_to_json(frontier_node_spec()));
  const ScenarioResult result = Engine(EngineOptions{.threads = 1}).run(spec);
  ASSERT_TRUE(result.frontier.has_value());
  bool some_platform_infeasible = false;
  for (const auto& cell : result.frontier->cells) {
    for (const double objective : cell.objective_kg) {
      some_platform_infeasible = some_platform_infeasible || !std::isfinite(objective);
    }
  }
  EXPECT_TRUE(some_platform_infeasible);
  const io::Json json = result_to_json(result);
  EXPECT_EQ(result_to_json(Engine(EngineOptions{.threads = 4}).run(spec)).dump(),
            json.dump());
  check_against_golden("result_frontier_node", json);
}

TEST(GoldenResults, FrameLoweringShapes) {
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::compare)).front().rows.size(), 3u);
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::sweep)).front().rows.size(), 4u);
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::grid)).front().rows.size(), 6u);
  EXPECT_EQ(to_frames(run_kind(ScenarioKind::breakeven)).front().rows.size(), 3u);
  const auto sensitivity = to_frames(run_kind(ScenarioKind::sensitivity));
  ASSERT_EQ(sensitivity.size(), 2u);
  EXPECT_EQ(sensitivity[0].name, "tornado");
  EXPECT_EQ(sensitivity[1].name, "montecarlo_summary");
}

TEST(GoldenResults, McSamplesFrameHasOneRowPerSample) {
  const ScenarioResult result = run_kind(ScenarioKind::montecarlo);
  const report::ResultFrame samples = mc_samples_frame(result);
  EXPECT_EQ(samples.rows.size(), 16u);
  // sample + 2 platform totals + 1 ratio column.
  EXPECT_EQ(samples.columns.size(), 4u);
  // Non-montecarlo results have no sample matrix.
  EXPECT_THROW(mc_samples_frame(run_kind(ScenarioKind::compare)), std::logic_error);
}

TEST(GoldenResults, BatchIsBitIdenticalToIndividualRuns) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioKind kind : all_kinds()) {
    specs.push_back(spec_for(kind));
  }
  std::vector<std::string> individual;
  for (const ScenarioKind kind : all_kinds()) {
    individual.push_back(result_to_json(run_kind(kind)).dump());
  }
  for (const int threads : {1, 4}) {
    const Engine engine(EngineOptions{.threads = threads});
    const std::vector<ScenarioResult> batch = engine.run_batch(specs);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(result_to_json(batch[i]).dump(), individual[i])
          << "kind " << to_string(specs[i].kind) << " at " << threads << " threads";
    }
  }
}

TEST(GoldenResults, BatchSharesSuitesAcrossDuplicateSpecs) {
  // Several specs over the same suite (the memo-sharing path) must still
  // produce per-spec results identical to solo runs.
  const ScenarioSpec sweep = spec_for(ScenarioKind::sweep);
  const ScenarioSpec grid = spec_for(ScenarioKind::grid);
  const Engine engine(EngineOptions{.threads = 4});
  const std::vector<ScenarioResult> batch = engine.run_batch({sweep, grid, sweep});
  EXPECT_TRUE(batch[0] == batch[2]);
  EXPECT_EQ(result_to_json(batch[0]).dump(),
            result_to_json(Engine(EngineOptions{.threads = 1}).run(sweep)).dump());
  EXPECT_EQ(result_to_json(batch[1]).dump(),
            result_to_json(Engine(EngineOptions{.threads = 1}).run(grid)).dump());
}

TEST(GoldenResults, NonFiniteResultValuesRoundTrip) {
  // A zero-baseline ratio or an unbounded breakeven solve produces
  // inf/NaN cells; the canonical JSON must stay total over them (the old
  // `null`-for-non-finite encoding corrupted the documented round-trip).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ScenarioResult result = run_kind(ScenarioKind::breakeven);
  ASSERT_TRUE(result.breakeven.has_value());
  result.breakeven->app_count = kInf;
  result.breakeven->lifetime_years = -kInf;
  result.breakeven->volume = std::numeric_limits<double>::quiet_NaN();

  const io::Json json = result_to_json(result);
  // Equality is canonical-bytes equality, so NaN cells compare equal to
  // themselves.
  EXPECT_TRUE(result == result);
  // The text is a fixed point of parse -> dump.
  const std::string text = json.dump();
  EXPECT_EQ(io::parse_json(text).dump(), text);
  // The cells are the writer's string sentinels.
  const io::Json breakeven = io::parse_json(text).at("breakeven");
  EXPECT_EQ(breakeven.at("app_count").as_string(), "inf");
  EXPECT_EQ(breakeven.at("lifetime_years").as_string(), "-inf");
  EXPECT_EQ(breakeven.at("volume").as_string(), "nan");
}

TEST(GoldenResults, NonFiniteUncertaintyCellsRoundTrip) {
  // Inf/NaN in the Monte-Carlo payload (a zero-baseline sample makes the
  // ratio stream non-finite) survive the canonical round-trip too.
  ScenarioResult result = run_kind(ScenarioKind::montecarlo);
  ASSERT_TRUE(result.uncertainty.has_value());
  result.uncertainty->ratio.front().mean = std::numeric_limits<double>::infinity();
  result.uncertainty->sample_totals_kg.front().front() =
      std::numeric_limits<double>::quiet_NaN();
  const std::string text = result_to_json(result).dump();
  EXPECT_EQ(io::parse_json(text).dump(), text);
  EXPECT_EQ(io::parse_json(text).dump(0), result_to_json(result).dump(0));
}

TEST(GoldenResults, BreakevenJsonDistinguishesUnrequestedFromNoCrossover) {
  ScenarioSpec spec = spec_for(ScenarioKind::breakeven);
  spec.breakeven.solve_volume = false;
  const ScenarioResult result = Engine(EngineOptions{.threads = 1}).run(spec);
  const io::Json json = result_to_json(result);
  EXPECT_TRUE(json.at("breakeven").contains("app_count"));
  EXPECT_FALSE(json.at("breakeven").contains("volume"));
}

}  // namespace
}  // namespace greenfpga::scenario
