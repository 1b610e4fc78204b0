/// Tests for the frontier kind (src/scenario/kinds/frontier.cpp): the
/// frontier section's JSON contract, grid materialisation, the search's
/// winner/margin/slice/boundary rules, the node axis, spec validation, the
/// Monte-Carlo confidence pass, and the determinism contract
/// (bit-identical results at any thread count).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "device/catalog.hpp"
#include "io/json.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"

namespace greenfpga::scenario {
namespace {

FrontierSpec small_frontier() {
  FrontierSpec frontier;
  frontier.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 4, 4),
                   AxisSpec::log(SweepVariable::volume, 1e4, 1e6, 3)};
  return frontier;
}

/// A 4 x 3 asic/fpga/gpu DNN frontier.
ScenarioSpec small_spec() {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::frontier, device::Domain::dnn);
  spec.name = "small frontier";
  spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                    PlatformRef{.name = "gpu"}};
  spec.frontier = small_frontier();
  return spec;
}

FrontierResult search(const ScenarioSpec& spec, int threads = 1) {
  ScenarioResult result = Engine(EngineOptions{.threads = threads}).run(spec);
  return std::move(*result.frontier);
}

std::string message_of(const ScenarioSpec& spec) {
  try {
    spec.validate();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

// -- spec JSON contract -------------------------------------------------------

TEST(FrontierSpecJson, RoundTripIsByteIdentical) {
  ScenarioSpec spec = small_spec();
  spec.frontier.objective = FrontierObjective::embodied;
  spec.frontier.confidence_samples = 32;
  spec.frontier.seed = 9;
  const io::Json json = spec_to_json(spec);
  EXPECT_EQ(spec_to_json(spec_from_json(json)).dump(), json.dump());
}

TEST(FrontierSpecJson, NodeAxisRoundTripsAndRejectsNumericKeys) {
  ScenarioSpec spec = small_spec();
  spec.frontier.axes = {
      AxisSpec::linear(SweepVariable::volume, 1e4, 1e6, 3),
      AxisSpec::node_list({tech::ProcessNode::n28, tech::ProcessNode::n7})};
  const io::Json json = spec_to_json(spec);
  // The node axis writes only its variable and node list.
  const io::Json& node_axis = json.at("frontier").at("axes").at(1);
  EXPECT_EQ(node_axis.size(), 2u);
  EXPECT_EQ(node_axis.at("variable").as_string(), "node");
  EXPECT_EQ(node_axis.at("nodes").at(1).as_string(), "7 nm");
  EXPECT_EQ(spec_to_json(spec_from_json(json)).dump(), json.dump());

  // A node axis carrying numeric-axis keys is a config error.
  EXPECT_THROW((void)axis_from_json(io::parse_json(R"({"variable": "node", "from": 1.0})"),
                                    "frontier.axes", true),
               core::ConfigError);
  // Sweep and grid axes keep rejecting the node variable and its key.
  EXPECT_THROW((void)axis_from_json(io::parse_json(R"({"variable": "node"})"), "", false),
               core::ConfigError);
  EXPECT_THROW((void)axis_from_json(io::parse_json(R"({"variable": "volume", "nodes": []})"),
                                    "", false),
               core::ConfigError);
}

TEST(FrontierSpecJson, UnknownKeysAndBadShapesFail) {
  EXPECT_THROW((void)spec_from_json(io::parse_json(
                   R"({"kind": "frontier", "frontier": {"bogus": 1}})")),
               core::ConfigError);
  // One axis only: the kind wants 2-4.
  ScenarioSpec one = small_spec();
  one.frontier.axes = {AxisSpec::linear(SweepVariable::volume, 1e4, 1e6, 3)};
  EXPECT_NE(message_of(one).find("frontier.axes: needs 2-4 axes, got 1"),
            std::string::npos);
  // Duplicate variables.
  ScenarioSpec dup = small_spec();
  dup.frontier.axes = {AxisSpec::linear(SweepVariable::volume, 1e4, 1e6, 3),
                       AxisSpec::log(SweepVariable::volume, 1e4, 1e6, 3)};
  EXPECT_NE(message_of(dup).find("frontier.axes: duplicate axis over volume"),
            std::string::npos);
  // A node axis belongs to the frontier only.
  ScenarioSpec sweep = ScenarioSpec::make(ScenarioKind::sweep, device::Domain::dnn);
  sweep.axes = {AxisSpec::node_list({})};
  EXPECT_NE(message_of(sweep).find("a node axis is only valid in frontier.axes"),
            std::string::npos);
}

TEST(FrontierSpecAxes, ValuesMaterialiseLikeTheScenarioAxes) {
  const AxisSpec lin = AxisSpec::linear(SweepVariable::app_count, 1, 4, 4);
  EXPECT_EQ(lin.values(), (std::vector<double>{1, 2, 3, 4}));
  const AxisSpec lg = AxisSpec::log(SweepVariable::volume, 1e2, 1e4, 3);
  const std::vector<double> logged = lg.values();
  ASSERT_EQ(logged.size(), 3u);
  EXPECT_DOUBLE_EQ(logged.front(), 1e2);
  EXPECT_DOUBLE_EQ(logged.back(), 1e4);  // endpoint snapped exactly
  const AxisSpec nodes = AxisSpec::node_list({});
  EXPECT_EQ(nodes.materialised_nodes().size(), tech::all_nodes().size());
  EXPECT_EQ(nodes.values().size(), tech::all_nodes().size());
  EXPECT_EQ(nodes.label(), "node [nm]");
}

// -- search structure ---------------------------------------------------------

TEST(FrontierSearch, GridShapeWinnersAndWinFractionsAreConsistent) {
  const FrontierResult result = search(small_spec());
  ASSERT_EQ(result.axis_values.size(), 2u);
  EXPECT_EQ(result.cells.size(), 12u);  // 4 x 3
  // Axis 0 is the fastest dimension.
  EXPECT_DOUBLE_EQ(result.cells[0].coords[0], 1.0);
  EXPECT_DOUBLE_EQ(result.cells[1].coords[0], 2.0);
  EXPECT_DOUBLE_EQ(result.cells[0].coords[1], result.cells[1].coords[1]);
  EXPECT_DOUBLE_EQ(result.cells[2 * 4 + 1].coords[1], result.axis_values[1][2]);

  std::size_t total_wins = 0;
  for (std::size_t p = 0; p < result.win_counts.size(); ++p) {
    total_wins += result.win_counts[p];
    EXPECT_DOUBLE_EQ(result.win_fraction[p],
                     static_cast<double>(result.win_counts[p]) /
                         static_cast<double>(result.cells.size()));
  }
  EXPECT_EQ(total_wins + result.infeasible_cells, result.cells.size());
  for (const FrontierCell& cell : result.cells) {
    ASSERT_EQ(cell.objective_kg.size(), 3u);
    ASSERT_GE(cell.winner, 0);
    // The winner really is the argmin of the finite objectives.
    for (const double objective : cell.objective_kg) {
      EXPECT_LE(cell.objective_kg[static_cast<std::size_t>(cell.winner)], objective);
    }
    EXPECT_GE(cell.margin, 1.0);
    EXPECT_DOUBLE_EQ(cell.confidence, 1.0);  // no confidence pass
  }
}

TEST(FrontierSearch, SlicesCoverEveryAxisValue) {
  const FrontierResult result = search(small_spec());
  ASSERT_EQ(result.slices.size(), 4u + 3u);
  for (const FrontierSlice& slice : result.slices) {
    double total = 0.0;
    for (const double fraction : slice.win_fraction) {
      total += fraction;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);  // all cells feasible here
  }
}

TEST(FrontierSearch, BoundariesSeparateAdjacentCellsWithDifferentWinners) {
  const FrontierResult result = search(small_spec());
  // The paper's DNN deployment space has an asic/fpga breakeven inside
  // this window, so at least one boundary must exist.
  ASSERT_FALSE(result.boundaries.empty());
  for (const FrontierBoundary& boundary : result.boundaries) {
    EXPECT_LT(boundary.platform_a, boundary.platform_b);
    ASSERT_FALSE(boundary.points.empty());
    // Points sorted lexicographically and inside the grid's bounds.
    for (std::size_t i = 1; i < boundary.points.size(); ++i) {
      EXPECT_LE(boundary.points[i - 1], boundary.points[i]);
    }
    for (const std::array<double, 2>& point : boundary.points) {
      EXPECT_GE(point[0], result.axis_values[0].front());
      EXPECT_LE(point[0], result.axis_values[0].back());
      EXPECT_GE(point[1], result.axis_values[1].front());
      EXPECT_LE(point[1], result.axis_values[1].back());
    }
  }
}

TEST(FrontierSearch, ObjectiveSelectsTheComparedMetric) {
  ScenarioSpec embodied = small_spec();
  embodied.frontier.objective = FrontierObjective::embodied;
  ScenarioSpec operational = small_spec();
  operational.frontier.objective = FrontierObjective::operational;
  // Embodied excludes use-phase energy, operational excludes fab: the two
  // orderings cannot produce identical objective tables.
  EXPECT_NE(search(embodied).cells.front().objective_kg,
            search(operational).cells.front().objective_kg);
}

TEST(FrontierSearch, NodeAxisMarksUnbuildablePlatformsInfeasible) {
  ScenarioSpec spec = small_spec();
  spec.frontier.axes = {
      AxisSpec::linear(SweepVariable::app_count, 1, 3, 3),
      AxisSpec::node_list({tech::ProcessNode::n28, tech::ProcessNode::n7})};
  const FrontierResult result = search(spec);
  ASSERT_EQ(result.cells.size(), 6u);
  for (const FrontierCell& cell : result.cells) {
    EXPECT_GE(cell.winner, 0);  // the ASIC is feasible on both nodes
    // The 600 mm^2 DNN FPGA exceeds the reticle at 28 nm only.
    EXPECT_EQ(std::isinf(cell.objective_kg[1]), cell.coords[1] == 28.0);
  }
}

TEST(FrontierSearch, ValidationRejectsBadProblems) {
  // Rejected as a spec error, before any evaluation.
  ScenarioSpec one_platform = small_spec();
  one_platform.platforms = {PlatformRef{.name = "asic"}};
  EXPECT_NE(message_of(one_platform).find("platforms: a frontier needs at least two, got 1"),
            std::string::npos);
  EXPECT_THROW((void)Engine(EngineOptions{.threads = 1}).run(one_platform),
               std::invalid_argument);

  ScenarioSpec bad_axis = small_spec();
  bad_axis.frontier.axes[1] = AxisSpec::list(SweepVariable::volume, {1e4, 0.0});
  EXPECT_NE(message_of(bad_axis).find("frontier.axes: axis volume values must be positive"),
            std::string::npos);
}

// -- confidence pass ----------------------------------------------------------

ScenarioSpec confidence_spec() {
  ScenarioSpec spec = small_spec();
  spec.frontier.confidence_samples = 16;
  spec.frontier.seed = 5;
  return spec;  // montecarlo.distributions: uniform over every Table 1 range
}

TEST(FrontierConfidence, FractionsAreInRangeAndSeedDependent) {
  const FrontierResult result = search(confidence_spec());
  EXPECT_EQ(result.confidence_samples, 16);
  for (const FrontierCell& cell : result.cells) {
    EXPECT_GE(cell.confidence, 0.0);
    EXPECT_LE(cell.confidence, 1.0);
  }
  ScenarioSpec reseeded = confidence_spec();
  reseeded.frontier.seed = 6;
  const FrontierResult other = search(reseeded);
  // Same point estimates, possibly different confidence: at minimum the
  // grids agree on winners.
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    EXPECT_EQ(result.cells[i].winner, other.cells[i].winner);
  }
}

// -- determinism --------------------------------------------------------------

TEST(FrontierDeterminism, BitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::frontier, device::Domain::dnn);
  spec.name = "frontier determinism pin";
  spec.platforms = {PlatformRef{.name = "asic"}, PlatformRef{.name = "fpga"},
                    PlatformRef{.name = "gpu"}, PlatformRef{.name = "cpu"}};
  spec.frontier.confidence_samples = 12;
  const std::string baseline =
      result_to_json(Engine(EngineOptions{.threads = 1}).run(spec)).dump();
  for (const int threads : {2, 8}) {
    const std::string other =
        result_to_json(Engine(EngineOptions{.threads = threads}).run(spec)).dump();
    EXPECT_EQ(other, baseline) << threads << " threads";
  }
}

}  // namespace
}  // namespace greenfpga::scenario
