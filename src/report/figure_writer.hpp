#ifndef GREENFPGA_REPORT_FIGURE_WRITER_HPP
#define GREENFPGA_REPORT_FIGURE_WRITER_HPP

/// \file figure_writer.hpp
/// Shared figure-output helpers used by the paper drivers (bench/):
/// numeric tables for sweep series and breakdowns, plus CSV emission so
/// results can be re-plotted outside the repo.

#include <string>

#include "core/lifecycle_model.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "report/result_frame.hpp"
#include "scenario/sweep.hpp"
#include "scenario/timeline.hpp"

namespace greenfpga::report {

/// Numeric table of a sweep: x, ASIC total, FPGA total, ratio, verdict.
[[nodiscard]] std::string sweep_table(const scenario::SweepSeries& series);

/// Human-readable crossover summary line ("A2F at N_app = 5.4; ...").
[[nodiscard]] std::string crossover_summary(const scenario::SweepSeries& series);

/// Component table of platform breakdowns (one column per platform), in
/// tonnes CO2e: the paper's Figs. 7/10/11 stacks as numbers.
[[nodiscard]] std::string breakdown_table(
    std::span<const std::pair<std::string, core::CfpBreakdown>> platforms);

/// Frame form of a platform-breakdown table (one row per platform, one
/// component column each, tonnes CO2e): the structured counterpart of
/// `breakdown_table` for format-dispatched commands (`industry`).
[[nodiscard]] ResultFrame breakdown_frame(
    std::string name,
    std::span<const std::pair<std::string, core::CfpBreakdown>> platforms);

/// CSV of a sweep series (x, per-component columns for both platforms).
[[nodiscard]] io::CsvWriter sweep_csv(const scenario::SweepSeries& series);

/// CSV of a timeline (time, cumulative totals).
[[nodiscard]] io::CsvWriter timeline_csv(const scenario::TimelineSeries& series);

/// Default output directory for bench artifacts; created on demand.
/// Respects the GREENFPGA_RESULTS_DIR environment variable, defaulting to
/// "results" under the current working directory.
[[nodiscard]] std::string results_dir();

/// Write a CSV under results_dir()/name and return the full path.
std::string write_results_csv(const std::string& name, const io::CsvWriter& csv);

}  // namespace greenfpga::report

#endif  // GREENFPGA_REPORT_FIGURE_WRITER_HPP
