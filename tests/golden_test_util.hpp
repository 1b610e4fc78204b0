#ifndef GREENFPGA_TESTS_GOLDEN_TEST_UTIL_HPP
#define GREENFPGA_TESTS_GOLDEN_TEST_UTIL_HPP

/// Shared golden-snapshot machinery for the regression suites
/// (golden_figures_test, golden_results_test): tolerance-aware recursive
/// JSON comparison plus the check-or-regenerate entry point.
///
/// Comparison is per-value with a relative tolerance of 1e-9 (absolute
/// 1e-12 near zero): tight enough that any model change trips it, loose
/// enough to survive benign FP-reassociation differences across
/// compilers.  Regenerate intentionally with
///
///     GREENFPGA_REGEN_GOLDEN=1 ./<suite>
///
/// then review the diff of tests/golden/*.json like any other code
/// change.  The golden directory is baked in at compile time
/// (GREENFPGA_GOLDEN_DIR, set by CMakeLists.txt for every golden_* test).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "io/json.hpp"

#ifndef GREENFPGA_GOLDEN_DIR
#error "GREENFPGA_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace greenfpga::testing {

inline constexpr double kGoldenRelTolerance = 1e-9;
inline constexpr double kGoldenAbsTolerance = 1e-12;

/// Recursive JSON comparison: identical structure, numbers within
/// tolerance.  Appends one message per mismatch, prefixed with the JSON
/// path, so a failure names exactly which value drifted.
inline void compare_json(const io::Json& golden, const io::Json& actual,
                         const std::string& path, std::vector<std::string>& errors) {
  if (golden.type() != actual.type()) {
    errors.push_back(path + ": type mismatch");
    return;
  }
  switch (golden.type()) {
    case io::Json::Type::number: {
      const double g = golden.as_number();
      const double a = actual.as_number();
      const double scale = std::max(std::fabs(g), std::fabs(a));
      if (std::fabs(g - a) >
          std::max(kGoldenAbsTolerance, kGoldenRelTolerance * scale)) {
        errors.push_back(path + ": golden " + std::to_string(g) + " vs actual " +
                         std::to_string(a));
      }
      return;
    }
    case io::Json::Type::array: {
      if (golden.size() != actual.size()) {
        errors.push_back(path + ": array size " + std::to_string(golden.size()) +
                         " vs " + std::to_string(actual.size()));
        return;
      }
      for (std::size_t i = 0; i < golden.size(); ++i) {
        compare_json(golden.at(i), actual.at(i), path + "[" + std::to_string(i) + "]",
                     errors);
      }
      return;
    }
    case io::Json::Type::object: {
      for (const auto& [key, value] : golden.as_object()) {
        if (!actual.contains(key)) {
          errors.push_back(path + ": missing key \"" + key + "\"");
          continue;
        }
        compare_json(value, actual.at(key), path + "." + key, errors);
      }
      for (const auto& [key, value] : actual.as_object()) {
        if (!golden.contains(key)) {
          errors.push_back(path + ": unexpected key \"" + key + "\"");
        }
      }
      return;
    }
    default:
      if (!(golden == actual)) {
        errors.push_back(path + ": value mismatch");
      }
      return;
  }
}

/// Compare `actual` against tests/golden/<name>.json, or rewrite the
/// snapshot when GREENFPGA_REGEN_GOLDEN is set.
inline void check_against_golden(const std::string& name, const io::Json& value) {
  const std::string path = std::string(GREENFPGA_GOLDEN_DIR) + "/" + name + ".json";
  // Compare (and write) the canonical text form: the in-memory tree holds
  // non-finite numbers as doubles, while the written text holds the
  // writer's string sentinels ("inf", "-inf", "nan").
  const io::Json actual = io::parse_json(value.dump());
  if (std::getenv("GREENFPGA_REGEN_GOLDEN") != nullptr) {
    io::write_json_file(path, actual);
    GTEST_SKIP() << "regenerated " << path;
  }
  const io::Json golden = io::parse_json_file(path);
  std::vector<std::string> errors;
  compare_json(golden, actual, name, errors);
  for (const std::string& error : errors) {
    ADD_FAILURE() << error;
  }
  if (!errors.empty()) {
    FAIL() << errors.size() << " golden value(s) drifted; if the model change is "
           << "intentional, regenerate with GREENFPGA_REGEN_GOLDEN=1 and review the "
           << "diff of " << path;
  }
}

}  // namespace greenfpga::testing

#endif  // GREENFPGA_TESTS_GOLDEN_TEST_UTIL_HPP
