/// \file result_io.cpp
/// Canonical result JSON and frame lowering.  The common envelope -- spec
/// and resolved platforms -- lives here; every kind section is owned by
/// its registry module, and the writer simply iterates the registry
/// (sections are presence-gated, and the sorted canonical object makes
/// emission order irrelevant to the bytes).

#include "scenario/result_io.hpp"

#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "scenario/kind_registry.hpp"

namespace greenfpga::scenario {

namespace {

using io::Json;
using report::Cell;
using report::Column;
using report::ResultFrame;

}  // namespace

Json result_to_json(const ScenarioResult& result) {
  Json out = Json::object();
  out["spec"] = spec_to_json(result.spec);
  Json platforms = Json::array();
  for (std::size_t i = 0; i < result.platform_names.size(); ++i) {
    Json entry = Json::object();
    entry["name"] = result.platform_names[i];
    entry["chip"] = core::to_json(result.resolved_chips[i]);
    platforms.push_back(std::move(entry));
  }
  out["platforms"] = std::move(platforms);
  for (const KindModule* module : all_kind_modules()) {
    if (module->result_to_json != nullptr) {
      module->result_to_json(result, out);
    }
  }
  return out;
}

bool operator==(const ScenarioResult& a, const ScenarioResult& b) {
  // Compare the *serialized* canonical forms, not the Json trees: tree
  // equality compares doubles with ==, under which NaN != NaN, so a
  // result carrying a NaN cell (e.g. a 0/0 ratio) would never equal
  // itself.  The dump encodes non-finite values as text sentinels, making
  // the canonical-bytes identity total.
  return result_to_json(a).dump(0) == result_to_json(b).dump(0);
}

// -- frames ---------------------------------------------------------------------

std::vector<report::ResultFrame> to_frames(const ScenarioResult& result) {
  std::vector<ResultFrame> frames;
  const KindModule& module = kind_module(result.spec.kind);
  if (module.to_frames != nullptr) {
    module.to_frames(result, frames);
  }
  return frames;
}

report::ResultFrame mc_samples_frame(const ScenarioResult& result) {
  if (!result.uncertainty) {
    throw std::logic_error("mc_samples_frame: result has no uncertainty payload");
  }
  const MonteCarloUq& uq = *result.uncertainty;
  ResultFrame frame;
  frame.name = "samples";
  frame.columns.push_back(Column{.name = "sample", .unit = "", .precision = 6});
  for (const std::string& platform : result.platform_names) {
    frame.columns.push_back(Column{.name = platform + "_total_kg", .unit = "",
                                   .precision = 6});
  }
  for (std::size_t k = 1; k < result.platform_names.size(); ++k) {
    frame.columns.push_back(Column{.name = result.platform_names[k] + "_over_" +
                                               result.platform_names[0] + "_ratio",
                                   .unit = "", .precision = 6});
  }
  std::vector<std::vector<double>> ratio_columns;
  for (std::size_t k = 1; k < uq.sample_totals_kg.size(); ++k) {
    ratio_columns.push_back(uq.ratio_samples(k));
  }
  const std::size_t samples = uq.sample_totals_kg.front().size();
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<Cell> row{Cell(static_cast<double>(i))};
    for (const std::vector<double>& totals : uq.sample_totals_kg) {
      row.emplace_back(totals[i]);
    }
    for (const std::vector<double>& ratios : ratio_columns) {
      row.emplace_back(ratios[i]);
    }
    frame.add_row(std::move(row));
  }
  return frame;
}

}  // namespace greenfpga::scenario
