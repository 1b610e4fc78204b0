/// The fleet scenario kind: datacenter fleet sizing over a traffic trace
/// and regional grid profiles, reconfiguration amortisation, spec/result
/// round-trip, engine determinism, and the `greenfpga fleet` subcommand.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "scenario/fleet.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"

namespace greenfpga::scenario {
namespace {

ScenarioSpec fleet_spec(int mc_samples = 0) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::fleet, device::Domain::dnn);
  spec.name = "fleet under test";
  spec.fleet->mc_samples = mc_samples;
  return spec;
}

TEST(FleetSpec, MakeSeedsAValidDefaultSection) {
  const ScenarioSpec spec = fleet_spec();
  ASSERT_TRUE(spec.fleet.has_value());
  EXPECT_FALSE(spec.fleet->regions.empty());
  EXPECT_FALSE(spec.fleet->services.empty());
  EXPECT_NO_THROW(spec.validate());
  // Non-fleet specs do not grow a fleet section (their canonical bytes
  // must not change).
  EXPECT_FALSE(
      ScenarioSpec::make(ScenarioKind::compare, device::Domain::dnn).fleet.has_value());
}

TEST(FleetSpec, ValidationNamesTheOffendingField) {
  ScenarioSpec spec = fleet_spec();
  spec.fleet->utilization = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = fleet_spec();
  spec.fleet->regions.front().profile = "cloudy";
  try {
    spec.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("unknown profile \"cloudy\""),
              std::string::npos)
        << error.what();
  }
  spec = fleet_spec();
  spec.fleet->services.front().trace = {0.5, 0.5};  // not 24 entries
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // The JSON reader cannot carry inf; the C++ API can, and `!(inf > 0)`
  // alone would let it through to inf totals and NaN ratios.
  spec = fleet_spec();
  spec.fleet->horizon_years = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(FleetSpec, JsonRoundTripIsByteIdentical) {
  ScenarioSpec spec = fleet_spec(16);
  spec.fleet->regions.front().weight = 2.5;
  spec.fleet->services.front().peak_load = 12345.0;
  spec.fleet->horizon_years = 4.5;
  const std::string text = spec_to_json(spec).dump();
  EXPECT_EQ(spec_to_json(spec_from_json(io::parse_json(text))).dump(), text);
}

TEST(FleetRun, DefaultPlatformsAreTheThreeWayComparison) {
  const Engine engine(EngineOptions{.threads = 1});
  const ScenarioResult result = engine.run(fleet_spec());
  ASSERT_EQ(result.platform_names.size(), 3u);
  EXPECT_EQ(result.platform_names[0], "asic");
  EXPECT_EQ(result.platform_names[1], "fpga");
  EXPECT_EQ(result.platform_names[2], "gpu");
}

TEST(FleetRun, SimulationShapesAndReconfigAccounting) {
  const Engine engine(EngineOptions{.threads = 1});
  const ScenarioResult result = engine.run(fleet_spec());
  ASSERT_TRUE(result.fleet.has_value());
  const FleetResult& fleet = *result.fleet;
  ASSERT_EQ(fleet.groups.size(), result.resolved_chips.size());
  ASSERT_EQ(fleet.region_multipliers.size(), result.spec.fleet->regions.size());
  EXPECT_GT(fleet.peak_units, 0.0);
  for (const double multiplier : fleet.region_multipliers) {
    EXPECT_GT(multiplier, 0.0);
  }
  for (std::size_t i = 0; i < fleet.groups.size(); ++i) {
    EXPECT_GT(fleet.groups[i].units, 0.0) << result.platform_names[i];
    EXPECT_GT(fleet.groups[i].total.total().canonical(), 0.0)
        << result.platform_names[i];
    if (result.resolved_chips[i].kind == device::ChipKind::fpga) {
      // Serving several services costs bitstream swaps: the FPGA fleet is
      // over-provisioned by the reconfiguration amortisation factor.
      EXPECT_GT(fleet.groups[i].reconfig_factor, 1.0);
    } else {
      // Fixed-function platforms never reconfigure.
      EXPECT_EQ(fleet.groups[i].reconfig_factor, 1.0) << result.platform_names[i];
    }
  }
}

TEST(FleetRun, ZeroReconfigOverheadRemovesTheFpgaPenalty) {
  ScenarioSpec spec = fleet_spec();
  spec.fleet->reconfig_overhead_hours = 0.0;
  const ScenarioResult result = Engine(EngineOptions{.threads = 1}).run(spec);
  for (std::size_t i = 0; i < result.fleet->groups.size(); ++i) {
    EXPECT_EQ(result.fleet->groups[i].reconfig_factor, 1.0);
  }
}

TEST(FleetRun, MonteCarloBytesAreThreadCountInvariant) {
  const ScenarioSpec spec = fleet_spec(16);
  const std::string base =
      result_to_json(Engine(EngineOptions{.threads = 1}).run(spec)).dump();
  EXPECT_EQ(result_to_json(Engine(EngineOptions{.threads = 4}).run(spec)).dump(), base);
  const ScenarioResult result = Engine(EngineOptions{.threads = 2}).run(spec);
  ASSERT_TRUE(result.uncertainty.has_value());
  EXPECT_EQ(result.uncertainty->samples, 16);
  ASSERT_EQ(result.uncertainty->sample_totals_kg.size(), 3u);
  // The sample matrix feeds the --csv export.
  EXPECT_EQ(mc_samples_frame(result).rows.size(), 16u);
}

TEST(FleetRun, ResultRoundTripsThroughCanonicalJson) {
  const ScenarioResult result =
      Engine(EngineOptions{.threads = 1}).run(fleet_spec(8));
  const std::string text = result_to_json(result).dump();
  EXPECT_EQ(io::parse_json(text).dump(), text);
  EXPECT_EQ(io::parse_json(text).dump(0), result_to_json(result).dump(0));
}

TEST(FleetCli, SubcommandRunsAndRendersTheFleetFrames) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::dispatch({"fleet", "dnn", "--horizon", "4", "--utilization",
                                  "0.8"},
                                 out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("datacenter fleet"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("reconfig factor"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("intensity multiplier"), std::string::npos) << out.str();
}

TEST(FleetCli, UsageErrorsNameTheFlag) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::dispatch({"fleet", "mars"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown domain 'mars'"), std::string::npos);
  err.str("");
  EXPECT_EQ(cli::dispatch({"fleet", "dnn", "--utilization", "2"}, out, err), 2);
  EXPECT_NE(err.str().find("--utilization"), std::string::npos);
  err.str("");
  EXPECT_EQ(cli::dispatch({"fleet", "dnn", "--horizon", "inf"}, out, err), 2);
  EXPECT_NE(err.str().find("--horizon"), std::string::npos);
  err.str("");
  // --csv needs sampling turned on.
  EXPECT_EQ(cli::dispatch({"fleet", "dnn", "--csv", "x.csv"}, out, err), 2);
  EXPECT_NE(err.str().find("--samples"), std::string::npos);
}

}  // namespace
}  // namespace greenfpga::scenario
