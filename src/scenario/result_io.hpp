#ifndef GREENFPGA_SCENARIO_RESULT_IO_HPP
#define GREENFPGA_SCENARIO_RESULT_IO_HPP

/// \file result_io.hpp
/// Structured result output: frame lowering and the canonical JSON form.
///
/// `ScenarioResult` is the engine's in-memory answer; this module gives it
/// two machine-readable faces:
///
///   * `to_frames` lowers every `ScenarioKind` into one or more columnar
///     `report::ResultFrame`s -- the single source every renderer (text
///     table, CSV, Markdown, batch index) draws from, so no output format
///     ever re-implements a scenario kind;
///   * `result_to_json` is the canonical, total JSON form: every field,
///     sorted keys, shortest round-trip numbers, non-finite values as
///     string sentinels.  Its text is a fixed point of parse -> dump
///     (pinned by tests/golden_results_test.cpp), which is what
///     `greenfpga batch --validate` checks of every written file.  Nothing
///     in the product reads a result back: serve caches and persists the
///     rendered bytes themselves.

#include <vector>

#include "io/json.hpp"
#include "report/result_frame.hpp"
#include "scenario/engine.hpp"

namespace greenfpga::scenario {

/// Canonical JSON form of an engine result: the as-run spec, the resolved
/// platforms, and the kind-dependent payload (every field, deterministic
/// key order, shortest round-trip numbers).
[[nodiscard]] io::Json result_to_json(const ScenarioResult& result);

/// Result equality, defined as equality of the canonical JSON forms (the
/// payload holds std::function-bearing spec members, so memberwise
/// comparison is not expressible; canonical JSON is the identity every
/// consumer observes).
[[nodiscard]] bool operator==(const ScenarioResult& a, const ScenarioResult& b);

/// Lower a result into its presentation frames (at least one for every
/// kind; sensitivity yields tornado + Monte-Carlo summary frames).  The
/// raw Monte-Carlo sample matrix is deliberately *not* lowered here --
/// see `mc_samples_frame`.
[[nodiscard]] std::vector<report::ResultFrame> to_frames(const ScenarioResult& result);

/// Per-sample frame of a montecarlo-kind result: one row per sample, a
/// total column per platform and a ratio column per non-baseline platform
/// (the `--csv` export).  Throws std::logic_error when the result carries
/// no uncertainty payload.
[[nodiscard]] report::ResultFrame mc_samples_frame(const ScenarioResult& result);

}  // namespace greenfpga::scenario

#endif  // GREENFPGA_SCENARIO_RESULT_IO_HPP
