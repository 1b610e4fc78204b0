#ifndef GREENFPGA_GREENFPGA_HPP
#define GREENFPGA_GREENFPGA_HPP

/// \file greenfpga.hpp
/// Umbrella header: the public GreenFPGA API in one include.
///
/// The primary entry point is the unified evaluation engine:
///
///     #include "greenfpga.hpp"
///
///     auto spec = greenfpga::scenario::ScenarioSpec::make(
///         greenfpga::scenario::ScenarioKind::sweep);
///     spec.axes = {greenfpga::scenario::AxisSpec::linear(
///         greenfpga::scenario::SweepVariable::app_count, 1, 12, 12)};
///     const auto result = greenfpga::scenario::Engine().run(spec);
///
/// See docs/ARCHITECTURE.md ("Evaluation engine") for the full map.

// Units and quantities.
#include "units/format.hpp"
#include "units/quantity.hpp"
#include "units/units.hpp"

// Process technology and ACT-style carbon models.
#include "act/carbon_intensity.hpp"
#include "act/fab_model.hpp"
#include "act/grid_profile.hpp"
#include "act/operational_model.hpp"
#include "tech/node.hpp"
#include "tech/yield.hpp"

// Devices, platforms and workloads.
#include "device/catalog.hpp"
#include "device/chip_spec.hpp"
#include "device/iso_performance.hpp"
#include "device/platform_registry.hpp"
#include "workload/application.hpp"

// Packaging and end-of-life.
#include "eol/eol_model.hpp"
#include "package/package_model.hpp"

// Core lifecycle models and configuration.
#include "core/appdev_model.hpp"
#include "core/comparator.hpp"
#include "core/config_io.hpp"
#include "core/design_model.hpp"
#include "core/lifecycle_model.hpp"
#include "core/paper_config.hpp"
#include "core/param_distributions.hpp"

// Scenarios: the unified engine, its result types and algorithm primitives.
#include "scenario/breakeven.hpp"
#include "scenario/engine.hpp"
#include "scenario/heatmap.hpp"
#include "scenario/node_dse.hpp"
#include "scenario/sensitivity.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/timeline.hpp"

// I/O and reporting.
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "report/ascii_chart.hpp"
#include "report/figure_writer.hpp"
#include "report/markdown_report.hpp"

#endif  // GREENFPGA_GREENFPGA_HPP
