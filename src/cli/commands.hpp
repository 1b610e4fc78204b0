#ifndef GREENFPGA_CLI_COMMANDS_HPP
#define GREENFPGA_CLI_COMMANDS_HPP

/// \file commands.hpp
/// The `greenfpga` CLI commands as a library, so they are unit-testable
/// with captured streams; main.cpp is a thin argv shim.
///
/// `dispatch` runs one command line: one flag parser splits the global
/// flags -- `--threads N` (engine worker count; falls back to the
/// GREENFPGA_THREADS environment variable, then hardware concurrency),
/// `--format {text,json,csv,md}` (output renderer) and `--output <path>`
/// (write the rendered output to a file; the `batch` results directory)
/// -- into an explicit `CommandContext`, so the command layer holds no
/// mutable globals and is safe to call concurrently from one process.  It
/// then looks the command up in one name -> command table and splits its
/// arguments against that command's flag table.  The spec shorthands
/// (`mc`, `fleet`, `frontier`, `sweep`, `nodes`) build their spec through
/// `scenario::spec_from_json`, exactly as `run` reads a file.  Exit codes:
/// 0 success, 1 runtime failure (bad config content, model error), 2
/// usage error.
///
/// Commands parse arguments and assemble data; *rendering* lives in
/// `report::` (`render_result` / `render_frames` over the frame IR), so
/// no scenario kind is formatted here.

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace greenfpga::cli {

/// The flags `command` accepts, as its parse table spells them (the
/// global flags for an empty name); nullopt for an unknown command.
/// Lets the usage text be checked against the parser.
[[nodiscard]] std::optional<std::vector<std::string>> command_flags(std::string_view command);

/// Full dispatch: `args` excludes argv[0].  Usage errors print a message
/// naming the flag or argument and return 2; other exceptions return 1
/// with the message on `err`.
int dispatch(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace greenfpga::cli

#endif  // GREENFPGA_CLI_COMMANDS_HPP
