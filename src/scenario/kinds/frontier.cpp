/// \file frontier.cpp
/// The frontier kind: where, in the joint space of application count,
/// lifetime, volume and fabrication node, does each platform win?
///
/// Every cell of the spec's 2-4 axis grid is one deployment scenario,
/// evaluated for every platform; the lowest objective wins the cell.  The
/// search then extracts per-platform win counts, per-axis slice win
/// fractions and, for 2-axis grids, breakeven boundary polylines (the
/// interpolated zero crossings of the pairwise objective difference
/// between adjacent cells with different winners).  The optional
/// confidence pass re-decides every cell under `confidence_samples`
/// parameter draws and reports, per cell, the fraction that agrees.
///
/// Cells and samples run on the worker pool, each writing a pre-sized
/// slot, and sample s is counter-stream sample (seed, s): results are
/// bit-identical at any thread count.

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"
#include "scenario/node_dse.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

constexpr std::string_view kSpecKeys[] = {"frontier"};

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

void seed_defaults(ScenarioSpec& spec) {
  // Frontier default: the paper's two headline deployment axes at a
  // resolution that keeps `greenfpga frontier` on a minimal spec fast.
  spec.frontier.axes = {
      AxisSpec::linear(SweepVariable::app_count, 1.0, 10.0, 10),
      AxisSpec::log(SweepVariable::volume, 1e4, 1e7, 10),
  };
}

void params_to_json(const ScenarioSpec& spec, Json& out) {
  const FrontierSpec& frontier = spec.frontier;
  Json section = Json::object();
  Json axes = Json::array();
  for (const AxisSpec& axis : frontier.axes) {
    axes.push_back(axis_to_json(axis));
  }
  section["axes"] = std::move(axes);
  section["objective"] = to_string(frontier.objective);
  section["confidence_samples"] = frontier.confidence_samples;
  section["seed"] = static_cast<std::int64_t>(frontier.seed);
  out["frontier"] = std::move(section);
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("frontier")) {
    return;
  }
  const Json& entry = json.at("frontier");
  core::check_known_keys(entry, "frontier",
                         {"axes", "objective", "confidence_samples", "seed"});
  FrontierSpec& frontier = spec.frontier;
  if (entry.contains("axes")) {
    frontier.axes.clear();
    for (const Json& axis : entry.at("axes").as_array()) {
      frontier.axes.push_back(axis_from_json(axis, "frontier.axes", true));
    }
  }
  const std::string objective = entry.string_or("objective", to_string(frontier.objective));
  const auto parsed = parse_frontier_objective(objective);
  if (!parsed) {
    throw core::ConfigError("frontier: unknown objective \"" + objective +
                            "\" (total, embodied, operational)");
  }
  frontier.objective = *parsed;
  frontier.confidence_samples = static_cast<int>(int_field_ctx(
      entry, "frontier", "confidence_samples", frontier.confidence_samples, 0, 1'000'000));
  frontier.seed = static_cast<unsigned>(
      int_field_ctx(entry, "frontier", "seed", frontier.seed, 0, 4294967295LL));
}

void validate(const ScenarioSpec& spec) {
  require_homogeneous_schedule(spec);
  const auto fail = [&spec](const std::string& message) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name + "': " + message);
  };
  const FrontierSpec& frontier = spec.frontier;
  if (frontier.axes.size() < 2 || frontier.axes.size() > 4) {
    fail("frontier.axes: needs 2-4 axes, got " + std::to_string(frontier.axes.size()));
  }
  // Distinct variables also means at most one node axis.
  for (std::size_t a = 0; a < frontier.axes.size(); ++a) {
    const AxisSpec& axis = frontier.axes[a];
    const std::string variable = to_string(axis.variable);
    for (std::size_t b = 0; b < a; ++b) {
      if (frontier.axes[b].variable == axis.variable) {
        fail("frontier.axes: duplicate axis over " + variable);
      }
    }
    if (axis.variable == SweepVariable::node) {
      continue;
    }
    if (axis.scale == AxisScale::list) {
      if (axis.explicit_values.empty()) {
        fail("frontier.axes: axis " + variable + " has no values");
      }
      for (const double v : axis.explicit_values) {
        if (!(v > 0.0)) {
          fail("frontier.axes: axis " + variable + " values must be positive");
        }
      }
    } else if (axis.count < 2) {
      fail("frontier.axes: axis " + variable + " needs count >= 2 samples");
    } else if (axis.from <= 0.0 || axis.to <= 0.0) {
      fail("frontier.axes: axis " + variable + " needs positive bounds");
    }
  }
  if (frontier.confidence_samples < 0) {
    fail("frontier.confidence_samples must be >= 0");
  }
  // Empty platforms default to asic + fpga.
  if (!spec.platforms.empty() && spec.platforms.size() < 2) {
    fail("platforms: a frontier needs at least two, got " +
         std::to_string(spec.platforms.size()));
  }
  // The confidence pass samples the montecarlo distributions, so it needs
  // them validated exactly like the montecarlo kind.
  if (frontier.confidence_samples > 0) {
    validate_spec_distributions(spec);
  }
}

// -- the search ---------------------------------------------------------------

double objective_of(const core::CfpBreakdown& total, FrontierObjective objective) {
  switch (objective) {
    case FrontierObjective::total:
      return total.total().canonical();
    case FrontierObjective::embodied:
      return total.embodied().canonical();
    case FrontierObjective::operational:
      return total.operational.canonical();
  }
  throw std::logic_error("objective_of: unknown objective");
}

/// Winner rule, shared by the point pass and the confidence pass: the
/// lowest finite objective wins; exact ties break to the lowest platform
/// index (deterministic).
int winner_of(const std::vector<double>& objectives) {
  int winner = -1;
  for (std::size_t p = 0; p < objectives.size(); ++p) {
    if (std::isfinite(objectives[p]) &&
        (winner < 0 || objectives[p] < objectives[static_cast<std::size_t>(winner)])) {
      winner = static_cast<int>(p);
    }
  }
  return winner;
}

double margin_of(const std::vector<double>& objectives, int winner) {
  if (winner < 0) {
    return kInfeasible;
  }
  double runner_up = kInfeasible;
  for (std::size_t p = 0; p < objectives.size(); ++p) {
    if (static_cast<int>(p) != winner && std::isfinite(objectives[p])) {
      runner_up = std::min(runner_up, objectives[p]);
    }
  }
  return runner_up / objectives[static_cast<std::size_t>(winner)];
}

/// The grid geometry: materialised axis values plus the cell decomposition
/// (axis 0 fastest-varying, matching the scenario grid convention).
struct Grid {
  std::vector<std::vector<double>> axis_values;
  std::vector<std::size_t> sizes;
  std::size_t cells = 1;

  [[nodiscard]] std::vector<std::size_t> decompose(std::size_t index) const {
    std::vector<std::size_t> digits(sizes.size());
    for (std::size_t a = 0; a < sizes.size(); ++a) {
      digits[a] = index % sizes[a];
      index /= sizes[a];
    }
    return digits;
  }
};

Grid make_grid(const std::vector<AxisSpec>& axes) {
  Grid grid;
  for (const AxisSpec& axis : axes) {
    grid.axis_values.push_back(axis.values());
    grid.sizes.push_back(grid.axis_values.back().size());
    grid.cells *= grid.sizes.back();
  }
  return grid;
}

/// Every platform's chip per node of the (optional) node axis, retargeted
/// once up front; without a node axis, one row of the resolved chips.  An
/// unmanufacturable retarget (reticle violation) marks the platform
/// infeasible on that node instead of failing the whole search.
struct ChipTable {
  std::optional<std::size_t> node_axis;
  std::vector<std::vector<std::optional<device::ChipSpec>>> rows;  ///< [node][platform]

  [[nodiscard]] const std::vector<std::optional<device::ChipSpec>>& row(
      const std::vector<std::size_t>& digits) const {
    return rows[node_axis ? digits[*node_axis] : 0];
  }
};

ChipTable make_chip_table(const std::vector<AxisSpec>& axes,
                          const std::vector<device::ChipSpec>& chips) {
  ChipTable table;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].variable == SweepVariable::node) {
      table.node_axis = a;
    }
  }
  if (!table.node_axis) {
    table.rows.emplace_back(chips.begin(), chips.end());
    return table;
  }
  for (const tech::ProcessNode node : axes[*table.node_axis].materialised_nodes()) {
    std::vector<std::optional<device::ChipSpec>>& row = table.rows.emplace_back();
    for (const device::ChipSpec& chip : chips) {
      try {
        row.emplace_back(retarget_to_node(chip, node));
      } catch (const std::invalid_argument&) {
        row.emplace_back(std::nullopt);
      }
    }
  }
  return table;
}

/// Every platform's objective in the cell at `digits` under `model`: the
/// base schedule with each numeric axis overridden by the cell coordinate,
/// on the chips of the cell's node.
std::vector<double> cell_objectives(const ScenarioSpec& spec, const Grid& grid,
                                    const ChipTable& chips,
                                    const core::LifecycleModel& model,
                                    const std::vector<std::size_t>& digits) {
  ScheduleSpec schedule_spec = spec.schedule;
  for (std::size_t a = 0; a < digits.size(); ++a) {
    apply_axis(schedule_spec, spec.frontier.axes[a].variable,
               grid.axis_values[a][digits[a]]);
  }
  schedule_spec.app_count = std::max(1, schedule_spec.app_count);
  const workload::Schedule schedule = schedule_spec.materialise(spec.domain);
  const std::vector<std::optional<device::ChipSpec>>& row = chips.row(digits);
  std::vector<double> objectives(row.size(), kInfeasible);
  for (std::size_t p = 0; p < row.size(); ++p) {
    if (row[p]) {
      objectives[p] =
          objective_of(model.evaluate(*row[p], schedule).total, spec.frontier.objective);
    }
  }
  return objectives;
}

/// Re-decide every cell under each confidence sample; set each cell's
/// confidence to the fraction of samples agreeing with its winner.
void confidence_pass(const KindRunContext& context, const core::ModelSuite& suite,
                     const ScenarioSpec& spec, const Grid& grid, const ChipTable& chips,
                     FrontierResult& out) {
  const ParameterSampler sampler(spec.montecarlo.distributions);
  const auto samples = static_cast<std::size_t>(spec.frontier.confidence_samples);
  // Pre-sized winner rows keep the reduction order fixed.
  std::vector<std::vector<int>> winners(samples, std::vector<int>(grid.cells, -1));
  core::parallel_for_state(
      samples, context.threads, [] { return 0; },
      [&](int& /*state*/, std::size_t s) {
        core::ModelSuite sampled = suite;
        sampler.draw(spec.frontier.seed, s, sampled);
        const core::LifecycleModel model(sampled);
        for (std::size_t i = 0; i < grid.cells; ++i) {
          winners[s][i] =
              winner_of(cell_objectives(spec, grid, chips, model, grid.decompose(i)));
        }
      });
  for (std::size_t i = 0; i < grid.cells; ++i) {
    std::size_t agree = 0;
    for (std::size_t s = 0; s < samples; ++s) {
      if (winners[s][i] == out.cells[i].winner) {
        ++agree;
      }
    }
    out.cells[i].confidence = static_cast<double>(agree) / static_cast<double>(samples);
  }
}

/// Breakeven boundaries of a 2-axis grid: interpolated zero crossings of
/// the pairwise objective difference between adjacent cells.
std::vector<FrontierBoundary> boundaries_of(const Grid& grid,
                                            const std::vector<FrontierCell>& cells) {
  std::vector<FrontierBoundary> boundaries;
  const std::size_t nx = grid.sizes[0];
  const std::size_t ny = grid.sizes[1];
  const auto consider = [&](std::size_t ia, std::size_t ib) {
    const FrontierCell& a = cells[ia];
    const FrontierCell& b = cells[ib];
    if (a.winner < 0 || b.winner < 0 || a.winner == b.winner) {
      return;
    }
    const auto p = static_cast<std::size_t>(a.winner);
    const auto q = static_cast<std::size_t>(b.winner);
    // f(x) = objective_p - objective_q changes sign between the cells;
    // place the boundary at the linear zero crossing.
    const double fa = a.objective_kg[p] - a.objective_kg[q];
    const double fb = b.objective_kg[p] - b.objective_kg[q];
    double t = 0.5;
    if (std::isfinite(fa) && std::isfinite(fb) && fb - fa > 0.0) {
      t = std::clamp(-fa / (fb - fa), 0.0, 1.0);
    }
    const std::array<double, 2> point{a.coords[0] + t * (b.coords[0] - a.coords[0]),
                                      a.coords[1] + t * (b.coords[1] - a.coords[1])};
    const int lo = std::min(a.winner, b.winner);
    const int hi = std::max(a.winner, b.winner);
    for (FrontierBoundary& boundary : boundaries) {
      if (boundary.platform_a == lo && boundary.platform_b == hi) {
        boundary.points.push_back(point);
        return;
      }
    }
    boundaries.push_back(FrontierBoundary{lo, hi, {point}});
  };
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const std::size_t i = y * nx + x;
      if (x + 1 < nx) {
        consider(i, i + 1);
      }
      if (y + 1 < ny) {
        consider(i, i + nx);
      }
    }
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const FrontierBoundary& a, const FrontierBoundary& b) {
              return std::pair(a.platform_a, a.platform_b) <
                     std::pair(b.platform_a, b.platform_b);
            });
  for (FrontierBoundary& boundary : boundaries) {
    std::sort(boundary.points.begin(), boundary.points.end());
  }
  return boundaries;
}

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  const Grid grid = make_grid(spec.frontier.axes);
  const ChipTable chips = make_chip_table(spec.frontier.axes, result.resolved_chips);
  const std::size_t platforms = result.resolved_chips.size();

  FrontierResult out;
  out.axis_values = grid.axis_values;
  out.confidence_samples = spec.frontier.confidence_samples;
  out.cells.resize(grid.cells);

  // Point-estimate pass: one task per cell, per-worker memoised model.
  parallel_for(grid.cells, context.threads, suite,
               [&](const core::LifecycleModel& model, std::size_t i) {
                 const std::vector<std::size_t> digits = grid.decompose(i);
                 FrontierCell& cell = out.cells[i];
                 cell.coords.reserve(digits.size());
                 for (std::size_t a = 0; a < digits.size(); ++a) {
                   cell.coords.push_back(grid.axis_values[a][digits[a]]);
                 }
                 cell.objective_kg = cell_objectives(spec, grid, chips, model, digits);
                 cell.winner = winner_of(cell.objective_kg);
                 cell.margin = margin_of(cell.objective_kg, cell.winner);
               });
  if (spec.frontier.confidence_samples > 0) {
    confidence_pass(context, suite, spec, grid, chips, out);
  }

  out.win_counts.assign(platforms, 0);
  for (const FrontierCell& cell : out.cells) {
    if (cell.winner >= 0) {
      ++out.win_counts[static_cast<std::size_t>(cell.winner)];
    } else {
      ++out.infeasible_cells;
    }
  }
  for (const std::size_t wins : out.win_counts) {
    out.win_fraction.push_back(static_cast<double>(wins) /
                               static_cast<double>(grid.cells));
  }

  // Per-axis slice win fractions.
  for (std::size_t a = 0; a < grid.sizes.size(); ++a) {
    for (std::size_t k = 0; k < grid.sizes[a]; ++k) {
      std::vector<std::size_t> wins(platforms, 0);
      std::size_t slice_cells = 0;
      for (std::size_t i = 0; i < grid.cells; ++i) {
        if (grid.decompose(i)[a] != k) {
          continue;
        }
        ++slice_cells;
        if (out.cells[i].winner >= 0) {
          ++wins[static_cast<std::size_t>(out.cells[i].winner)];
        }
      }
      FrontierSlice& slice = out.slices.emplace_back();
      slice.axis = a;
      slice.value = grid.axis_values[a][k];
      for (const std::size_t w : wins) {
        slice.win_fraction.push_back(static_cast<double>(w) /
                                     static_cast<double>(slice_cells));
      }
    }
  }

  if (grid.sizes.size() == 2) {
    out.boundaries = boundaries_of(grid, out.cells);
  }
  result.frontier = std::move(out);
}

void result_to_json(const ScenarioResult& result, Json& out) {
  if (!result.frontier) {
    return;
  }
  const FrontierResult& fr = *result.frontier;
  Json frontier = Json::object();
  Json axes = Json::array();
  for (const std::vector<double>& values : fr.axis_values) {
    axes.push_back(doubles_to_json(values));
  }
  frontier["axis_values"] = std::move(axes);
  Json cells = Json::array();
  for (const FrontierCell& cell : fr.cells) {
    Json entry = Json::object();
    entry["coords"] = doubles_to_json(cell.coords);
    entry["objective_kg"] = doubles_to_json(cell.objective_kg);
    entry["winner"] = cell.winner;
    entry["margin"] = cell.margin;
    entry["confidence"] = cell.confidence;
    cells.push_back(std::move(entry));
  }
  frontier["cells"] = std::move(cells);
  Json wins = Json::array();
  for (const std::size_t count : fr.win_counts) {
    wins.push_back(static_cast<int>(count));
  }
  frontier["win_counts"] = std::move(wins);
  frontier["win_fraction"] = doubles_to_json(fr.win_fraction);
  frontier["infeasible_cells"] = static_cast<int>(fr.infeasible_cells);
  Json slices = Json::array();
  for (const FrontierSlice& slice : fr.slices) {
    Json entry = Json::object();
    entry["axis"] = static_cast<int>(slice.axis);
    entry["value"] = slice.value;
    entry["win_fraction"] = doubles_to_json(slice.win_fraction);
    slices.push_back(std::move(entry));
  }
  frontier["slices"] = std::move(slices);
  Json boundaries = Json::array();
  for (const FrontierBoundary& boundary : fr.boundaries) {
    Json entry = Json::object();
    entry["platform_a"] = boundary.platform_a;
    entry["platform_b"] = boundary.platform_b;
    Json points = Json::array();
    for (const std::array<double, 2>& point : boundary.points) {
      Json pt = Json::array();
      pt.push_back(point[0]);
      pt.push_back(point[1]);
      points.push_back(std::move(pt));
    }
    entry["points"] = std::move(points);
    boundaries.push_back(std::move(entry));
  }
  frontier["boundaries"] = std::move(boundaries);
  frontier["confidence_samples"] = fr.confidence_samples;
  out["frontier"] = std::move(frontier);
}

/// One row per frontier cell: coordinates, per-platform objectives, the
/// winner and its margin, plus the Monte-Carlo win confidence.
ResultFrame frontier_cells_frame(const ScenarioResult& result) {
  const FrontierResult& frontier = *result.frontier;
  ResultFrame frame;
  frame.name = "frontier";
  for (const AxisSpec& axis : result.spec.frontier.axes) {
    frame.columns.push_back(Column{.name = axis.label(), .unit = "", .precision = 4});
  }
  for (const std::string& platform : result.platform_names) {
    frame.columns.push_back(Column{.name = platform, .unit = "t CO2e", .precision = 5});
  }
  frame.columns.push_back(Column{.name = "winner", .unit = "", .precision = 4});
  frame.columns.push_back(Column{.name = "margin", .unit = "", .precision = 4});
  frame.columns.push_back(Column{.name = "confidence", .unit = "", .precision = 4});
  for (const FrontierCell& cell : frontier.cells) {
    std::vector<Cell> row;
    row.reserve(frame.columns.size());
    for (const double c : cell.coords) {
      row.emplace_back(c);
    }
    for (const double objective : cell.objective_kg) {
      row.emplace_back(objective / kKgPerTonne);
    }
    row.emplace_back(cell.winner >= 0
                         ? result.platform_names[static_cast<std::size_t>(cell.winner)]
                         : std::string("-"));
    row.emplace_back(cell.margin);
    row.emplace_back(cell.confidence);
    frame.add_row(std::move(row));
  }
  frame.set_meta("objective", to_string(result.spec.frontier.objective));
  if (frontier.confidence_samples > 0) {
    frame.set_meta("confidence",
                   std::to_string(frontier.confidence_samples) + " samples, seed " +
                       std::to_string(result.spec.frontier.seed));
  }
  return frame;
}

/// One row per platform: its win count and overall win fraction.
ResultFrame frontier_summary_frame(const ScenarioResult& result) {
  const FrontierResult& frontier = *result.frontier;
  ResultFrame frame;
  frame.name = "frontier_summary";
  frame.columns = {Column{.name = "platform", .unit = "", .precision = 4},
                   Column{.name = "cells won", .unit = "", .precision = 6},
                   Column{.name = "win fraction", .unit = "", .precision = 4}};
  for (std::size_t p = 0; p < result.platform_names.size(); ++p) {
    frame.add_row({Cell(result.platform_names[p]),
                   Cell(static_cast<double>(frontier.win_counts[p])),
                   Cell(frontier.win_fraction[p])});
  }
  if (frontier.infeasible_cells > 0) {
    frame.set_meta("infeasible cells", std::to_string(frontier.infeasible_cells));
  }
  return frame;
}

/// One row per breakeven boundary point (2-axis frontiers only).
ResultFrame frontier_boundaries_frame(const ScenarioResult& result) {
  const FrontierResult& frontier = *result.frontier;
  ResultFrame frame;
  frame.name = "frontier_boundaries";
  frame.columns = {Column{.name = "between", .unit = "", .precision = 4},
                   Column{.name = result.spec.frontier.axes[0].label(), .unit = "",
                          .precision = 5},
                   Column{.name = result.spec.frontier.axes[1].label(), .unit = "",
                          .precision = 5}};
  for (const FrontierBoundary& boundary : frontier.boundaries) {
    const std::string pair =
        result.platform_names[static_cast<std::size_t>(boundary.platform_a)] + "|" +
        result.platform_names[static_cast<std::size_t>(boundary.platform_b)];
    for (const std::array<double, 2>& point : boundary.points) {
      frame.add_row({Cell(pair), Cell(point[0]), Cell(point[1])});
    }
  }
  return frame;
}

void to_frames(const ScenarioResult& result, std::vector<ResultFrame>& frames) {
  frames.push_back(frontier_cells_frame(result));
  frames.push_back(frontier_summary_frame(result));
  if (!result.frontier->boundaries.empty()) {
    frames.push_back(frontier_boundaries_frame(result));
  }
}

}  // namespace

const KindModule& frontier_module() {
  static const KindModule module{
      .kind = ScenarioKind::frontier,
      .name = "frontier",
      .summary = "platform win-region DSE over 2-4 deployment axes",
      .spec_keys = kSpecKeys,
      .seed_defaults = seed_defaults,
      .params_to_json = params_to_json,
      .parse_params = parse_params,
      .validate = validate,
      .execute = execute,
      .result_to_json = result_to_json,
      .to_frames = to_frames,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
