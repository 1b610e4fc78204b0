#ifndef GREENFPGA_BENCH_BENCH_COMMON_HPP
#define GREENFPGA_BENCH_BENCH_COMMON_HPP

/// \file bench_common.hpp
/// Shared scaffolding for the figure-reproduction bench binaries.
///
/// Every bench binary prints the rows/series of one paper table or figure
/// (the reproduction), also emitting CSV under results/ for re-plotting.
/// Timing the engine is not their job: perfbench/ measures the end-to-end
/// workloads and, with `--trace 1`, every layer of the request path.
///
/// `GF_BENCH_MAIN(print_function)` wires the print into a main().

#include <exception>
#include <iostream>
#include <string>

#include "core/paper_config.hpp"

namespace greenfpga::bench {

/// Paper sweep defaults shared by the experiment benches.
inline const core::SweepDefaults kDefaults = core::paper_sweep_defaults();

/// Prints a figure banner so bench output reads like the paper's layout.
inline void banner(const std::string& figure, const std::string& caption) {
  std::cout << "\n=== " << figure << ": " << caption << " ===\n\n";
}

}  // namespace greenfpga::bench

/// Expands to a main() that prints the reproduction; exits 1 if it throws.
#define GF_BENCH_MAIN(print_function)                      \
  int main() {                                             \
    try {                                                  \
      print_function();                                    \
    } catch (const std::exception& error) {                \
      std::cerr << "reproduction failed: " << error.what() \
                << "\n";                                   \
      return 1;                                            \
    }                                                      \
    return 0;                                              \
  }

#endif  // GREENFPGA_BENCH_BENCH_COMMON_HPP
