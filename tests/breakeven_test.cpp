/// Tests for the closed-form break-even solves, cross-validated against
/// the scan-and-interpolate crossovers of sweep specs.

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/breakeven.hpp"
#include "scenario/engine.hpp"
#include "units/units.hpp"

namespace greenfpga::scenario {
namespace {

using namespace units::unit;
using device::Domain;

/// The paper-suite model every solve below probes.
const core::LifecycleModel& paper_model() {
  static const core::LifecycleModel model(core::paper_suite());
  return model;
}

/// A sweep of `domain` over `axis`, the other two variables at the paper
/// defaults (the default `BreakevenContext`).
SweepSeries run_sweep(Domain domain, AxisSpec axis) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::sweep, domain);
  spec.axes = {std::move(axis)};
  return Engine().run(spec).sweep_series();
}

TEST(Breakeven, AppCountMatchesSweepCrossover) {
  const BreakevenContext context{};
  const auto analytic =
      solve_app_count_breakeven(paper_model(), device::domain_testcase(Domain::dnn), context);
  const auto series =
      run_sweep(Domain::dnn, AxisSpec::linear(SweepVariable::app_count, 1, 12, 12));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::a2f);
  ASSERT_TRUE(analytic && scanned);
  EXPECT_NEAR(*analytic, *scanned, 1e-6);
}

TEST(Breakeven, LifetimeMatchesSweepCrossover) {
  const BreakevenContext context{};
  const auto analytic =
      solve_lifetime_breakeven(paper_model(), device::domain_testcase(Domain::dnn), context);
  const auto series =
      run_sweep(Domain::dnn, AxisSpec::linear(SweepVariable::lifetime_years, 0.2, 2.5, 47));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(analytic && scanned);
  // The sweep interpolates between samples; the solver is exact.
  EXPECT_NEAR(*analytic, *scanned, 0.01);
}

TEST(Breakeven, VolumeMatchesSweepCrossover) {
  const BreakevenContext context{};
  const auto analytic =
      solve_volume_breakeven(paper_model(), device::domain_testcase(Domain::dnn), context);
  const auto series =
      run_sweep(Domain::dnn, AxisSpec::log(SweepVariable::volume, 1e3, 1e7, 81));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::f2a);
  ASSERT_TRUE(analytic && scanned);
  // Log-spaced scanning linearly interpolates a slightly curved chord;
  // exact solver within 2 %.
  EXPECT_NEAR(*analytic / *scanned, 1.0, 0.02);
}

TEST(Breakeven, ImgprocVolumeAndAppCount) {
  const BreakevenContext context{};
  const device::DomainTestcase imgproc = device::domain_testcase(Domain::imgproc);
  const auto volume = solve_volume_breakeven(paper_model(), imgproc, context);
  ASSERT_TRUE(volume.has_value());
  EXPECT_GT(*volume, 1e5);
  EXPECT_LT(*volume, 6e5);
  // ImgProc A2F sits past 8 apps; at T = 2y and 1e6 the solver agrees.
  const auto apps = solve_app_count_breakeven(paper_model(), imgproc, context);
  ASSERT_TRUE(apps.has_value());
  EXPECT_GT(*apps, 8.0);
}

TEST(Breakeven, CryptoHasNoPositiveBreakevens) {
  // Crypto: the FPGA dominates from the first application; the difference
  // line never crosses zero at positive x.
  const BreakevenContext context{};
  const device::DomainTestcase crypto = device::domain_testcase(Domain::crypto);
  EXPECT_FALSE(solve_app_count_breakeven(paper_model(), crypto, context).has_value());
  EXPECT_FALSE(solve_volume_breakeven(paper_model(), crypto, context).has_value());
}

TEST(Breakeven, ContextChangesTheAnswer) {
  // More applications push the volume break-even outward (more reuse to
  // amortise), until past the app-count crossover (~5.2 for DNN) the FPGA
  // wins at every volume and the break-even disappears.
  BreakevenContext four{};
  four.app_count = 4;
  BreakevenContext five{};
  five.app_count = 5;
  BreakevenContext seven{};
  seven.app_count = 7;
  const device::DomainTestcase dnn = device::domain_testcase(Domain::dnn);
  const auto at_four = solve_volume_breakeven(paper_model(), dnn, four);
  const auto at_five = solve_volume_breakeven(paper_model(), dnn, five);
  ASSERT_TRUE(at_four.has_value());
  ASSERT_TRUE(at_five.has_value());
  EXPECT_GT(*at_five, *at_four);
  EXPECT_FALSE(solve_volume_breakeven(paper_model(), dnn, seven).has_value())
      << "past the app-count crossover the FPGA wins at every volume";
}

TEST(Breakeven, RejectsPerYearAccounting) {
  core::ModelSuite suite = core::paper_suite();
  suite.appdev.accounting = core::AppDevAccounting::per_year;
  const core::LifecycleModel model(suite);
  const device::DomainTestcase testcase = device::domain_testcase(Domain::dnn);
  const BreakevenContext context{};
  EXPECT_THROW(solve_app_count_breakeven(model, testcase, context), std::invalid_argument);
  EXPECT_THROW(solve_lifetime_breakeven(model, testcase, context), std::invalid_argument);
  EXPECT_THROW(solve_volume_breakeven(model, testcase, context), std::invalid_argument);
}

TEST(Breakeven, RejectsMultiFleetHorizons) {
  // 10 apps x 2 years = 20 years > the FPGA's 15-year service life.
  BreakevenContext context{};
  context.app_count = 10;
  EXPECT_THROW(
      solve_lifetime_breakeven(paper_model(), device::domain_testcase(Domain::dnn), context),
      std::invalid_argument);
}

// Property: for every domain where the sweep finds an N_app crossover, the
// solver agrees to 1e-6 (exactness of the affine model).
class BreakevenAgreement : public ::testing::TestWithParam<Domain> {};

TEST_P(BreakevenAgreement, SolverAndSweepAgree) {
  const BreakevenContext context{};
  const auto analytic =
      solve_app_count_breakeven(paper_model(), device::domain_testcase(GetParam()), context);
  const auto series =
      run_sweep(GetParam(), AxisSpec::linear(SweepVariable::app_count, 1, 16, 16));
  const auto scanned = first_crossover(series.crossovers(), CrossoverKind::a2f);
  if (scanned.has_value()) {
    ASSERT_TRUE(analytic.has_value());
    EXPECT_NEAR(*analytic, *scanned, 1e-6);
  } else {
    EXPECT_FALSE(analytic.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, BreakevenAgreement,
                         ::testing::Values(Domain::dnn, Domain::imgproc, Domain::crypto));

}  // namespace
}  // namespace greenfpga::scenario
