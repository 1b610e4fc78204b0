/// Tests for pairwise grid specs and their ratio heat-maps (Fig. 8).

#include <gtest/gtest.h>

#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::scenario {
namespace {

using device::Domain;

/// A grid of `domain` over (x, y), the third variable at the paper default
/// (N_app = 5, T_i = 2 years, N_vol = 1e6).
Heatmap run_grid(AxisSpec x, AxisSpec y, Domain domain = Domain::dnn) {
  ScenarioSpec spec = ScenarioSpec::make(ScenarioKind::grid, domain);
  spec.axes = {std::move(x), std::move(y)};
  return Engine().run(spec).heatmap();
}

AxisSpec apps(std::vector<double> values) {
  return AxisSpec::list(SweepVariable::app_count, std::move(values));
}
AxisSpec lifetimes(std::vector<double> values) {
  return AxisSpec::list(SweepVariable::lifetime_years, std::move(values));
}
AxisSpec volumes(std::vector<double> values) {
  return AxisSpec::list(SweepVariable::volume, std::move(values));
}

TEST(Heatmap, AppCountVsLifetimeShape) {
  const Heatmap map = run_grid(apps({1, 3, 5, 7}), lifetimes({0.5, 1.0, 2.0}));
  EXPECT_EQ(map.x_name, "N_app");
  EXPECT_EQ(map.y_name, "T_i [years]");
  ASSERT_EQ(map.ratio.size(), 3u);
  ASSERT_EQ(map.ratio[0].size(), 4u);
  // Ratio falls along x (more apps help the FPGA) in every row.
  for (const auto& row : map.ratio) {
    for (std::size_t i = 1; i < row.size(); ++i) {
      EXPECT_LT(row[i], row[i - 1]);
    }
  }
}

TEST(Heatmap, RatioRisesWithLifetime) {
  const Heatmap map = run_grid(apps({5}), lifetimes({0.5, 1.0, 1.5, 2.0, 2.5}));
  for (std::size_t iy = 1; iy < map.y.size(); ++iy) {
    EXPECT_GT(map.ratio[iy][0], map.ratio[iy - 1][0])
        << "longer lifetimes favour the ASIC (Fig. 5 direction)";
  }
}

TEST(Heatmap, VolumeVsLifetimeShape) {
  const Heatmap map = run_grid(volumes({1e4, 1e5, 1e6}), lifetimes({1.0, 2.0}));
  ASSERT_EQ(map.ratio.size(), 2u);
  ASSERT_EQ(map.ratio[0].size(), 3u);
  EXPECT_EQ(map.x_name, "N_vol [units]");
}

TEST(Heatmap, VolumeVsAppCountShape) {
  const Heatmap map = run_grid(volumes({1e4, 1e6}), apps({1, 5}));
  ASSERT_EQ(map.ratio.size(), 2u);
  // More applications help the FPGA at any volume.
  EXPECT_LT(map.ratio[1][0], map.ratio[0][0]);
  EXPECT_LT(map.ratio[1][1], map.ratio[0][1]);
}

TEST(Heatmap, UnityContourFoundWhereCurvesCross) {
  // Along N_app at T = 2 y, V = 1e6 the DNN testcase crosses near 5-6
  // (Fig. 4), so the contour must contain a point at that row.
  const Heatmap map = run_grid(apps({1, 2, 3, 4, 5, 6, 7, 8}), lifetimes({2.0}));
  const auto contour = map.unity_contour();
  ASSERT_FALSE(contour.empty());
  EXPECT_GT(contour[0].x, 4.0);
  EXPECT_LT(contour[0].x, 7.0);
  EXPECT_DOUBLE_EQ(contour[0].y, 2.0);
}

TEST(Heatmap, ContourEmptyWhenOneSideDominates) {
  // Crypto: FPGA greener everywhere -> no unity contour.
  const Heatmap map = run_grid(apps({1, 3, 5}), lifetimes({1.0, 2.0}), Domain::crypto);
  EXPECT_TRUE(map.unity_contour().empty());
  EXPECT_LT(map.max_ratio(), 1.0);
}

TEST(Heatmap, MinMaxRatioBracketGrid) {
  const Heatmap map = run_grid(apps({1, 8}), lifetimes({0.5, 2.5}));
  EXPECT_LE(map.min_ratio(), map.max_ratio());
  for (const auto& row : map.ratio) {
    for (const double r : row) {
      EXPECT_GE(r, map.min_ratio());
      EXPECT_LE(r, map.max_ratio());
    }
  }
}

TEST(Heatmap, EmptyAxesThrow) {
  EXPECT_THROW(run_grid(apps({}), lifetimes({1.0})), std::invalid_argument);
}

TEST(Heatmap, HighVolumeManyAppsStillFpga) {
  // Paper Fig. 8 reading: at ~9 M volume FPGAs can be sustainable if
  // N_app > 6... checked here as ratio decreasing in k at high volume.
  const Heatmap map = run_grid(volumes({9e6}), apps({2, 6, 10, 14}));
  for (std::size_t iy = 1; iy < map.y.size(); ++iy) {
    EXPECT_LT(map.ratio[iy][0], map.ratio[iy - 1][0]);
  }
}

}  // namespace
}  // namespace greenfpga::scenario
