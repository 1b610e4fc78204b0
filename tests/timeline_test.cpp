/// Tests for the Fig. 9 timeline replay (chip-lifetime replacement).

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/timeline.hpp"

namespace greenfpga::scenario {
namespace {

using device::Domain;

/// The paper's Fig. 9 replay: 1-year applications, 1e6 volume,
/// quarter-year samples over a 45-year horizon by default.
TimelineSeries replay(Domain domain, double horizon_years = 45.0) {
  return simulate_timeline(core::LifecycleModel(core::paper_suite()),
                           device::domain_testcase(domain), horizon_years,
                           /*app_lifetime_years=*/1.0, /*volume=*/1e6, /*step_years=*/0.25);
}

TEST(Timeline, SeriesCoversHorizon) {
  const TimelineSeries series = replay(Domain::dnn);
  ASSERT_FALSE(series.time_years.empty());
  EXPECT_DOUBLE_EQ(series.time_years.front(), 0.0);
  EXPECT_DOUBLE_EQ(series.time_years.back(), 45.0);
  EXPECT_EQ(series.time_years.size(), series.asic_cumulative_kg.size());
  EXPECT_EQ(series.time_years.size(), series.fpga_cumulative_kg.size());
}

TEST(Timeline, CumulativeSeriesNeverDecrease) {
  const TimelineSeries series = replay(Domain::dnn);
  for (std::size_t i = 1; i < series.time_years.size(); ++i) {
    EXPECT_GE(series.asic_cumulative_kg[i], series.asic_cumulative_kg[i - 1]);
    EXPECT_GE(series.fpga_cumulative_kg[i], series.fpga_cumulative_kg[i - 1]);
  }
}

TEST(Timeline, FpgaFleetRepurchasedEveryFifteenYears) {
  const TimelineSeries series = replay(Domain::dnn);
  // 45-year horizon, 15-year FPGA service life: purchases at 0, 15, 30.
  ASSERT_EQ(series.fpga_purchase_years.size(), 3u);
  EXPECT_DOUBLE_EQ(series.fpga_purchase_years[0], 0.0);
  EXPECT_DOUBLE_EQ(series.fpga_purchase_years[1], 15.0);
  EXPECT_DOUBLE_EQ(series.fpga_purchase_years[2], 30.0);
}

TEST(Timeline, FpgaJumpsAtServiceLifeBoundaries) {
  const TimelineSeries series = replay(Domain::dnn);
  // Find samples just before and at year 15: the FPGA step must exceed the
  // typical between-year step (operation + appdev) by the fleet embodied.
  const auto at = [&](double year) {
    for (std::size_t i = 0; i < series.time_years.size(); ++i) {
      if (series.time_years[i] >= year - 1e-9) return i;
    }
    return series.time_years.size() - 1;
  };
  const double jump_15 =
      series.fpga_cumulative_kg[at(15.0)] - series.fpga_cumulative_kg[at(15.0) - 1];
  const double step_14 =
      series.fpga_cumulative_kg[at(14.0)] - series.fpga_cumulative_kg[at(14.0) - 1];
  EXPECT_GT(jump_15, 10.0 * step_14)
      << "fleet re-purchase at year 15 must dominate a routine quarter";
}

TEST(Timeline, AsicStaircaseHasNoFifteenYearJump) {
  // ASIC chips are re-manufactured every application (yearly) anyway, so
  // year 15 looks like any other year.
  const TimelineSeries series = replay(Domain::dnn);
  std::vector<double> yearly_steps;
  for (double year = 1.0; year <= 45.0; year += 1.0) {
    const auto index = static_cast<std::size_t>(year / 0.25);
    yearly_steps.push_back(series.asic_cumulative_kg[index] -
                           series.asic_cumulative_kg[index - 4]);
  }
  const double year15 = yearly_steps[14];
  const double year14 = yearly_steps[13];
  EXPECT_NEAR(year15 / year14, 1.0, 0.01);
}

TEST(Timeline, ShortHorizonHasSinglePurchase) {
  const TimelineSeries series = replay(Domain::dnn, /*horizon_years=*/10.0);
  EXPECT_EQ(series.fpga_purchase_years.size(), 1u);
}

TEST(Timeline, OneYearAppsFavourFpgaForDnn) {
  // Fig. 9 story: with 1-year applications, DNN FPGAs stay below ASICs
  // even across fleet replacements.
  const TimelineSeries series = replay(Domain::dnn);
  EXPECT_LT(series.fpga_cumulative_kg.back(), series.asic_cumulative_kg.back());
}

TEST(Timeline, ImgprocSeesMultipleCrossovers) {
  // Fig. 9 (ImgProc): the 15/30-year jumps produce repeated A2F/F2A flips.
  const TimelineSeries series = replay(Domain::imgproc);
  const auto crossovers = series.crossovers();
  EXPECT_GE(crossovers.size(), 2u)
      << "paper reports multiple A2F and F2A crossovers for ImgProc";
}

TEST(Timeline, CryptoFpgaAlwaysBelow) {
  const TimelineSeries series = replay(Domain::crypto);
  for (std::size_t i = 1; i < series.time_years.size(); ++i) {
    EXPECT_LT(series.fpga_cumulative_kg[i], series.asic_cumulative_kg[i])
        << "at year " << series.time_years[i];
  }
}

TEST(Timeline, InvalidParametersThrow) {
  const core::LifecycleModel model(core::paper_suite());
  const device::DomainTestcase dnn = device::domain_testcase(Domain::dnn);
  EXPECT_THROW(simulate_timeline(model, dnn, 0.0, 1.0, 1e6, 0.25), std::invalid_argument);
  EXPECT_THROW(simulate_timeline(model, dnn, 45.0, 0.0, 1e6, 0.25), std::invalid_argument);
  EXPECT_THROW(simulate_timeline(model, dnn, 45.0, 1.0, 0.0, 0.25), std::invalid_argument);
  EXPECT_THROW(simulate_timeline(model, dnn, 45.0, 1.0, 1e6, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace greenfpga::scenario
