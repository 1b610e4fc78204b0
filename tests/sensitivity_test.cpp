/// Tests for the Table 1 sensitivity machinery (tornado + Monte Carlo)
/// and the ParameterSampler every Monte-Carlo pass draws through.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "core/param_distributions.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"
#include "scenario/sensitivity.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

TEST(Table1Ranges, CoversEveryTableRow) {
  const auto ranges = table1_ranges();
  ASSERT_EQ(ranges.size(), 10u);
  for (const ParameterRange& range : ranges) {
    EXPECT_FALSE(range.name.empty());
    EXPECT_LT(range.low, range.high) << range.name;
    EXPECT_TRUE(static_cast<bool>(range.apply)) << range.name;
  }
}

TEST(Table1Ranges, AppliersWriteTheRightField) {
  const auto ranges = table1_ranges();
  core::ModelSuite suite = core::paper_suite();
  for (const ParameterRange& range : ranges) {
    range.apply(suite, range.high);
  }
  EXPECT_DOUBLE_EQ(suite.fab.recycled_material_fraction, 1.0);
  EXPECT_DOUBLE_EQ(suite.eol.recycled_fraction, 1.0);
  EXPECT_DOUBLE_EQ(suite.eol.recycle_credit_factor.in(mtco2e_per_ton), 29.83);
  EXPECT_DOUBLE_EQ(suite.eol.discard_factor.in(mtco2e_per_ton), 2.08);
  EXPECT_DOUBLE_EQ(suite.appdev.frontend_time.in(months), 2.5);
  EXPECT_DOUBLE_EQ(suite.appdev.backend_time.in(months), 1.5);
  EXPECT_DOUBLE_EQ(suite.design.annual_energy.in(gwh), 7.3);
  EXPECT_DOUBLE_EQ(suite.design.intensity.in(g_per_kwh), 700.0);
  EXPECT_DOUBLE_EQ(suite.design.company_employees, 160e3);
  EXPECT_DOUBLE_EQ(suite.design.project_duration.in(years), 3.0);
}

TEST(Tornado, SortedByDescendingSwing) {
  const auto entries =
      tornado(core::paper_suite(), device::domain_testcase(Domain::dnn),
              core::paper_schedule(Domain::dnn), table1_ranges());
  ASSERT_EQ(entries.size(), 10u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].swing(), entries[i].swing());
  }
}

TEST(Tornado, DesignKnobsMatterForDnn) {
  // The DNN story is design-amortisation driven, so at least one design
  // parameter must rank in the top three.
  const auto entries =
      tornado(core::paper_suite(), device::domain_testcase(Domain::dnn),
              core::paper_schedule(Domain::dnn), table1_ranges());
  bool design_in_top3 = false;
  for (std::size_t i = 0; i < 3; ++i) {
    if (entries[i].name.find("T_proj") != std::string::npos ||
        entries[i].name.find("E_des") != std::string::npos ||
        entries[i].name.find("C_src_des") != std::string::npos ||
        entries[i].name.find("N_emp") != std::string::npos) {
      design_in_top3 = true;
    }
  }
  EXPECT_TRUE(design_in_top3);
}

TEST(Tornado, RatiosAreFinitePositive) {
  const auto entries =
      tornado(core::paper_suite(), device::domain_testcase(Domain::crypto),
              core::paper_schedule(Domain::crypto), table1_ranges());
  for (const TornadoEntry& entry : entries) {
    EXPECT_GT(entry.ratio_at_low, 0.0) << entry.name;
    EXPECT_GT(entry.ratio_at_high, 0.0) << entry.name;
    EXPECT_TRUE(std::isfinite(entry.ratio_at_low)) << entry.name;
  }
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  const auto testcase = device::domain_testcase(Domain::dnn);
  const auto schedule = core::paper_schedule(Domain::dnn);
  const auto a = monte_carlo(core::paper_suite(), testcase, schedule, table1_ranges(), 64, 7);
  const auto b = monte_carlo(core::paper_suite(), testcase, schedule, table1_ranges(), 64, 7);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.fpga_win_fraction, b.fpga_win_fraction);
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  const auto testcase = device::domain_testcase(Domain::dnn);
  const auto schedule = core::paper_schedule(Domain::dnn);
  const auto a = monte_carlo(core::paper_suite(), testcase, schedule, table1_ranges(), 64, 1);
  const auto b = monte_carlo(core::paper_suite(), testcase, schedule, table1_ranges(), 64, 2);
  EXPECT_NE(a.mean, b.mean);
}

TEST(MonteCarlo, PercentilesOrdered) {
  const auto result =
      monte_carlo(core::paper_suite(), device::domain_testcase(Domain::dnn),
                  core::paper_schedule(Domain::dnn), table1_ranges(), 128, 42);
  EXPECT_LE(result.p05, result.p50);
  EXPECT_LE(result.p50, result.p95);
  EXPECT_GT(result.stddev, 0.0);
  EXPECT_EQ(result.samples, 128);
  EXPECT_GE(result.fpga_win_fraction, 0.0);
  EXPECT_LE(result.fpga_win_fraction, 1.0);
}

TEST(MonteCarlo, CryptoWinsRobustly) {
  // Crypto's FPGA advantage should survive nearly all Table 1 samples.
  const auto result =
      monte_carlo(core::paper_suite(), device::domain_testcase(Domain::crypto),
                  core::paper_schedule(Domain::crypto), table1_ranges(), 128, 42);
  EXPECT_GT(result.fpga_win_fraction, 0.95);
}

TEST(MonteCarlo, InvalidSampleCountThrows) {
  EXPECT_THROW(monte_carlo(core::paper_suite(), device::domain_testcase(Domain::dnn),
                           core::paper_schedule(Domain::dnn), table1_ranges(), 0),
               std::invalid_argument);
}

TEST(MonteCarlo, EqualsAHandWrittenCounterStreamLoop) {
  // Sample i sets range j to low + u * (high - low) with
  // u = counter_uniform01(seed, i, j).  No standard-library distribution
  // takes part, so the numbers are the same on every toolchain.
  const auto testcase = device::domain_testcase(Domain::imgproc);
  const auto schedule = core::paper_schedule(Domain::imgproc);
  const std::vector<ParameterRange> ranges = table1_ranges();
  constexpr int kSamples = 48;
  constexpr unsigned kSeed = 7;
  std::vector<double> ratios;
  int wins = 0;
  for (int i = 0; i < kSamples; ++i) {
    core::ModelSuite suite = core::paper_suite();
    for (std::size_t j = 0; j < ranges.size(); ++j) {
      const double u = core::counter_uniform01(kSeed, static_cast<std::uint64_t>(i), j);
      ranges[j].apply(suite, ranges[j].low + u * (ranges[j].high - ranges[j].low));
    }
    ratios.push_back(core::compare(core::LifecycleModel(suite), testcase, schedule).ratio());
    wins += ratios.back() < 1.0 ? 1 : 0;
  }
  const UqStat expected = summarise_samples(ratios, {5.0, 50.0, 95.0});

  const MonteCarloResult result =
      monte_carlo(core::paper_suite(), testcase, schedule, ranges, kSamples, kSeed);
  EXPECT_EQ(result.mean, expected.mean);
  EXPECT_EQ(result.stddev, expected.stddev);
  EXPECT_EQ(result.p05, expected.percentile_values[0]);
  EXPECT_EQ(result.p50, expected.percentile_values[1]);
  EXPECT_EQ(result.p95, expected.percentile_values[2]);
  EXPECT_EQ(result.fpga_win_fraction, static_cast<double>(wins) / kSamples);
}

TEST(ParameterSampler, DrawMatchesTheCounterStream) {
  // Out of table order and of every family, so each dimension must find
  // its applier by name and its variate by position.
  const std::vector<core::ParamDistribution> distributions{
      core::ParamDistribution::normal("E_des [GWh]", 4.0, 1.0, 2.0, 7.3),
      core::ParamDistribution::triangular("rho (recycled materials)", 0.0, 0.3, 1.0),
      core::ParamDistribution::uniform("T_proj [years]", 1.0, 3.0)};
  const ParameterSampler sampler(distributions);
  const std::vector<ParameterRange> ranges = table1_ranges();
  const auto applier = [&ranges](const std::string& name) {
    return std::find_if(ranges.begin(), ranges.end(),
                        [&name](const ParameterRange& range) { return range.name == name; })
        ->apply;
  };
  constexpr std::uint64_t kSeed = 9;
  const std::string base = core::to_json(core::paper_suite()).dump();
  for (const std::uint64_t index : {0u, 1u, 17u}) {
    core::ModelSuite drawn = core::paper_suite();
    sampler.draw(kSeed, index, drawn);
    core::ModelSuite expected = core::paper_suite();
    for (std::size_t j = 0; j < distributions.size(); ++j) {
      applier(distributions[j].parameter)(
          expected, distributions[j].sample(core::counter_uniform01(kSeed, index, j)));
    }
    EXPECT_EQ(core::to_json(drawn).dump(), core::to_json(expected).dump()) << index;
    EXPECT_NE(core::to_json(drawn).dump(), base) << index;
  }
  EXPECT_THROW(ParameterSampler({core::ParamDistribution::uniform("bogus", 0.0, 1.0)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace greenfpga::scenario
