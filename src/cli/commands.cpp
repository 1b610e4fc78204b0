/// \file commands.cpp
/// The `greenfpga` subcommands as stream-parameterised entry points.
///
/// Every command is a row of one table: its name, the flags it accepts
/// and either a handler or a spec shorthand.  One flag parser serves all
/// of them (and the global flags).  A shorthand (`mc`, `fleet`,
/// `frontier`, `sweep`, `nodes`) is a spelling of a `ScenarioSpec`: its
/// positionals and flags land at spec JSON paths and the document goes
/// through `scenario::spec_from_json`, the reader behind `greenfpga run`,
/// so a shorthand never checks a field the spec reader already checks.
/// Rendering is not done here: results lower into `report::ResultFrame`s
/// and the `--format` renderers in `report::result_render` present them.

#include "cli/commands.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/comparator.hpp"
#include "core/config_io.hpp"
#include "core/paper_config.hpp"
#include "device/catalog.hpp"
#include "report/figure_writer.hpp"
#include "report/markdown_report.hpp"
#include "report/result_render.hpp"
#include "scenario/engine.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/result_io.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "units/format.hpp"
#include "units/units.hpp"

namespace greenfpga::cli {

namespace {

/// The global flags of one invocation, threaded explicitly through every
/// command (no process-wide state).
struct CommandContext {
  /// Engine worker count; 0 = GREENFPGA_THREADS, else hardware
  /// concurrency (see scenario::Engine::default_threads).
  int threads = 0;
  report::OutputFormat format = report::OutputFormat::text;
  /// Output file path (for `batch`: the results directory).
  std::optional<std::string> output;
};

/// A failure whose message is the whole diagnostic: `dispatch` prints it
/// verbatim and exits with `code` (2 usage error, 1 runtime failure).
struct CliError : std::runtime_error {
  explicit CliError(const std::string& message, int exit_code = 2)
      : std::runtime_error(message), code(exit_code) {}
  int code;
};

/// A named spec fragment a shorthand value can select (an axis shape).
struct Preset {
  std::string_view name;
  std::string_view json;
};

/// One accepted flag.  A shorthand flag also names the spec JSON path its
/// value lands at (an empty path is an output file: `--json`, `--csv`).
/// The value is JSON when it parses (`16`, `0.8`), else a string
/// (`embodied`); a `list` value `a,b,...` is an array of the named
/// presets' JSON or, with no presets, of at least two strings.
struct Flag {
  std::string_view name;
  bool takes_value = true;
  std::string_view path = {};
  bool list = false;
  std::span<const Preset> presets = {};
};

/// One command line, split against a flag table.
struct Args {
  std::vector<std::string> positional;
  /// (flag, value) in command-line order; a switch's value is empty.
  std::vector<std::pair<const Flag*, std::string>> flags;

  /// The last value given for `flag` (a repeated flag overrides).
  [[nodiscard]] std::optional<std::string> last(std::string_view flag) const {
    for (auto each = flags.rbegin(); each != flags.rend(); ++each) {
      if (each->first->name == flag) {
        return each->second;
      }
    }
    return std::nullopt;
  }
  [[nodiscard]] bool has(std::string_view flag) const { return last(flag).has_value(); }
};

/// The one flag loop.  An argument naming a flag of `table` takes the next
/// argument as its value (a missing value is a usage error); any other
/// `--word` is an unknown argument, unless `pass_unknown` -- the global
/// pass, which leaves the command's own arguments in `positional`.
Args parse_flags(std::string_view command, const std::vector<std::string>& args,
                 std::span<const Flag> table, bool pass_unknown = false) {
  Args parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto flag = std::find_if(table.begin(), table.end(),
                                   [&](const Flag& each) { return each.name == args[i]; });
    if (flag == table.end()) {
      if (!pass_unknown && args[i].starts_with("--")) {
        throw CliError(std::string(command) + ": unknown argument '" + args[i] + "'");
      }
      parsed.positional.push_back(args[i]);
    } else if (!flag->takes_value) {
      parsed.flags.emplace_back(&*flag, std::string());
    } else if (i + 1 == args.size()) {
      throw CliError(std::string(command) + ": " + args[i] + " needs a value");
    } else {
      parsed.flags.emplace_back(&*flag, args[++i]);
    }
  }
  return parsed;
}

/// Requires exactly `count` positionals: too few prints `expected`, a
/// surplus names the first extra argument.
void expect_positionals(std::string_view command, const Args& args, std::size_t count,
                        std::string_view expected) {
  if (args.positional.size() < count) {
    throw CliError(std::string(command) + ": " + std::string(expected));
  }
  if (args.positional.size() > count) {
    throw CliError(std::string(command) + ": unexpected argument '" +
                   args.positional[count] + "'");
  }
}

/// An integer flag that is not a spec field (`--threads`, `serve`), or
/// `fallback` when absent.  The one strict read: the whole text must
/// parse, without overflow, inside [lo, hi]; anything else is a usage
/// error quoting `range`.
long number_flag(std::string_view command, const Args& args, std::string_view flag,
                 long fallback, long lo, long hi, std::string_view range) {
  const std::optional<std::string> text = args.last(flag);
  if (!text) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text->c_str(), &end, 10);
  if (text->empty() || end != text->c_str() + text->size() || errno == ERANGE ||
      value < lo || value > hi) {
    throw CliError(std::string(command) + ": invalid " + std::string(flag) + " '" + *text +
                   "' (" + std::string(range) + ")");
  }
  return value;
}

std::optional<device::Domain> parse_domain(const std::string& text) {
  if (text == "dnn") return device::Domain::dnn;
  if (text == "imgproc") return device::Domain::imgproc;
  if (text == "crypto") return device::Domain::crypto;
  return std::nullopt;
}

scenario::Engine make_engine(const CommandContext& context) {
  return scenario::Engine(scenario::EngineOptions{.threads = context.threads});
}

using Render = std::function<void(std::ostream&)>;

/// The one output-file writer (`--output`, `--json`, `--csv`,
/// `--markdown`): creates missing parent directories, reports
/// "wrote <path>", and fails naming the flag and the path.
void write_output(std::string_view flag, const std::string& path, const Render& render,
                  std::ostream& out) {
  const std::filesystem::path file_path(path);
  if (file_path.has_parent_path()) {
    std::error_code ignored;
    std::filesystem::create_directories(file_path.parent_path(), ignored);
  }
  std::ofstream file(file_path);
  if (file) {
    render(file);
    file.close();
  }
  if (!file) {
    throw CliError(std::string(flag) + ": cannot write '" + path + "'", 1);
  }
  out << "wrote " << path << "\n";
}

/// Run `render` against `--output` (if set) or `out`.
void emit(const CommandContext& context, const Render& render, std::ostream& out) {
  if (context.output) {
    write_output("--output", *context.output, render, out);
  } else {
    render(out);
  }
}

void emit_result(const CommandContext& context, const scenario::ScenarioResult& result,
                 std::ostream& out) {
  emit(
      context,
      [&result, &context](std::ostream& stream) {
        report::render_result(result, context.format, stream);
      },
      out);
}

/// Pretty JSON plus a trailing newline (the `io::write_json_file` bytes).
Render json_render(io::Json value) {
  return [value = std::move(value)](std::ostream& stream) {
    std::string text;
    value.dump_to(text);
    text.push_back('\n');
    stream << text;
  };
}

/// Whether `--csv` has per-sample Monte-Carlo totals to export (the
/// kind's module decides: montecarlo always, fleet with samples).
bool exports_samples(const scenario::ScenarioSpec& spec) {
  const scenario::KindModule& module = scenario::kind_module(spec.kind);
  return module.sample_csv != nullptr && module.sample_csv(spec);
}

/// Shared tail of `run` and the shorthands: evaluate the spec, render per
/// --format, write the optional --json result and --csv samples.
int run_and_emit(const CommandContext& context, const scenario::ScenarioSpec& spec,
                 const Args& args, std::ostream& out) {
  const scenario::ScenarioResult result = make_engine(context).run(spec);
  emit_result(context, result, out);
  if (const std::optional<std::string> path = args.last("--json")) {
    write_output("--json", *path, json_render(scenario::result_to_json(result)), out);
  }
  if (const std::optional<std::string> path = args.last("--csv")) {
    write_output(
        "--csv", *path,
        [&result](std::ostream& stream) {
          stream << report::frame_to_csv(scenario::mc_samples_frame(result)).render();
        },
        out);
  }
  return 0;
}

using Handler = int (*)(const CommandContext&, const Args&, std::ostream&, std::ostream&);

/// One row of the command table: a name, its flags, and either a handler
/// or -- a spec shorthand -- the spec it spells.
struct Command {
  std::string_view name;
  std::span<const Flag> flags = {};
  Handler run = nullptr;
  /// Shorthands: the spec kind; the positionals after the domain (sweep's
  /// variable), read like flags; the spec JSON to start from; and the
  /// spec name (it shows in the output) from the domain's display name
  /// and the spec JSON built so far.
  std::string_view kind = {};
  std::span<const Flag> positionals = {};
  std::string_view base = {};
  std::string (*title)(const std::string& domain, const io::Json& spec) = nullptr;
};

/// The JSON value a shorthand flag's text stands for.
io::Json flag_value(const Flag& flag, const std::string& text) {
  if (!flag.list) {
    try {
      return io::parse_json(text);
    } catch (const io::JsonError&) {
      return io::Json(text);
    }
  }
  io::Json items = io::Json::array();
  std::istringstream stream(text);
  for (std::string name; std::getline(stream, name, ',');) {
    if (name.empty()) {
      continue;
    }
    if (flag.presets.empty()) {
      items.push_back(name);
      continue;
    }
    const auto preset = std::find_if(flag.presets.begin(), flag.presets.end(),
                                     [&](const Preset& each) { return each.name == name; });
    if (preset == flag.presets.end()) {
      std::string known;
      for (const Preset& each : flag.presets) {
        known.append(known.empty() ? "" : ", ").append(each.name);
      }
      throw std::invalid_argument("'" + name + "' is not one of " + known);
    }
    items.push_back(io::parse_json(preset->json));
  }
  if (flag.presets.empty() && items.size() < 2) {
    throw std::invalid_argument("needs at least two comma-separated names");
  }
  return items;
}

/// `json["a"]["b"] = value` for the path "a.b", creating objects on the way.
void set_path(io::Json& json, std::string_view path, io::Json value) {
  io::Json* node = &json;
  for (std::size_t dot = path.find('.'); dot != std::string_view::npos;
       dot = path.find('.')) {
    node = &(*node)[std::string(path.substr(0, dot))];
    if (node->is_null()) {
      *node = io::Json::object();
    }
    path.remove_prefix(dot + 1);
  }
  (*node)[std::string(path)] = std::move(value);
}

std::string joined_platforms(const io::Json& spec, std::string_view separator) {
  std::string joined;
  if (spec.contains("platforms")) {
    for (const io::Json& name : spec.at("platforms").as_array()) {
      joined.append(joined.empty() ? "" : separator).append(name.as_string());
    }
  }
  return joined;
}

int run_shorthand(const Command& shorthand, const CommandContext& context, const Args& args,
                  std::ostream& out) {
  const std::string name(shorthand.name);
  std::string expected = "expected <dnn|imgproc|crypto>";
  for (const Flag& slot : shorthand.positionals) {
    expected.append(" <").append(slot.name).append(">");
  }
  expect_positionals(name, args, 1 + shorthand.positionals.size(), expected);
  const std::optional<device::Domain> domain = parse_domain(args.positional[0]);
  if (!domain) {
    throw CliError(name + ": unknown domain '" + args.positional[0] + "'");
  }

  io::Json json = shorthand.base.empty() ? io::Json::object() : io::parse_json(shorthand.base);
  json["kind"] = shorthand.kind;
  json["domain"] = args.positional[0];
  const auto read = [&] {
    json["name"] = shorthand.title(to_string(*domain), json);
    return scenario::spec_from_json(json);
  };
  // Positional slots, then flags in command-line order; the spec is
  // re-read after each, so a bad value is reported against its flag.
  std::vector<std::pair<const Flag*, std::string>> settings;
  for (std::size_t i = 0; i < shorthand.positionals.size(); ++i) {
    settings.emplace_back(&shorthand.positionals[i], args.positional[i + 1]);
  }
  settings.insert(settings.end(), args.flags.begin(), args.flags.end());
  for (const auto& [flag, text] : settings) {
    if (flag->path.empty()) {
      continue;  // an output file
    }
    try {
      set_path(json, flag->path, flag_value(*flag, text));
      (void)read();
    } catch (const std::exception& error) {
      throw CliError(name + ": invalid " + std::string(flag->name) + " '" + text +
                     "': " + error.what());
    }
  }
  const scenario::ScenarioSpec spec = read();
  if (args.has("--csv") && !exports_samples(spec)) {
    throw CliError(name + ": --csv exports Monte-Carlo samples; pass --samples N (> 0)");
  }
  return run_and_emit(context, spec, args, out);
}

/// Print the usage text; returns exit code 2 (callers print usage on
/// errors) -- pass `error = false` for `--help`, which exits 0.
int print_usage(std::ostream& out, bool error = true) {
  out << "GreenFPGA: lifecycle carbon-footprint comparison of FPGA and ASIC computing\n"
         "\n"
         "usage:\n"
         "  greenfpga [--threads N] [--format text|json|csv|md] [--output <path>]\n"
         "            <command> ...\n"
         "\n"
         "  greenfpga run <spec.json> [--json <out.json>] [--csv <out.csv>]\n"
         "      evaluate a declarative scenario spec through the unified engine;\n"
         "      kinds: "
      << scenario::kind_name_list()
      << "\n"
         "      (the registry is the source of truth for that list); see\n"
         "      examples/specs/ and docs/CLI.md for the spec shape (--csv exports\n"
         "      per-sample Monte-Carlo totals, sampling kinds only)\n"
         "  greenfpga serve [--port N] [--host ADDR] [--cache-capacity N]\n"
         "                  [--cache-shards N] [--cache-dir PATH]\n"
         "                  [--max-connections N] [--io-timeout-ms N]\n"
         "                  [--idle-timeout-ms N]\n"
         "      run the persistent HTTP/1.1 evaluation daemon: POST /v1/run and\n"
         "      /v1/batch take spec JSON and answer the canonical result JSON\n"
         "      (byte-identical to `run --format json`), served through a\n"
         "      content-addressed LRU of rendered bodies (GET /v1/stats for hit/miss\n"
         "      counters, GET /v1/platforms, GET /healthz; default port 8080,\n"
         "      --port 0 picks an ephemeral port, loopback-only by default)\n"
         "  greenfpga batch <manifest.json|directory> [--validate]\n"
         "      evaluate many specs as one batch on the worker pool; writes one\n"
         "      result JSON per spec plus an aggregate index to the --output\n"
         "      directory (default batch_results); --validate re-reads every\n"
         "      emitted JSON and fails unless it re-dumps to the canonical bytes\n"
         "  greenfpga frontier <dnn|imgproc|crypto> [--platforms a,b,...] [--axes x,y]\n"
         "                     [--objective total|embodied|operational] [--samples N]\n"
         "                     [--seed S] [--json <out.json>]\n"
         "      platform win-region DSE: evaluate every registry platform\n"
         "      (default asic,fpga,gpu,cpu) over a deployment grid (default\n"
         "      apps x volume; axes: apps, lifetime, volume, node), report the\n"
         "      per-cell winner, win fractions, breakeven boundary polylines, and\n"
         "      (with --samples) Monte-Carlo win confidence\n"
         "  greenfpga mc <dnn|imgproc|crypto> [--samples N] [--seed S]\n"
         "              [--csv <out.csv>] [--json <out.json>]\n"
         "      Monte-Carlo uncertainty quantification over the Table 1 parameter\n"
         "      distributions: percentile bands, win fractions and a ratio CDF\n"
         "  greenfpga fleet <dnn|imgproc|crypto> [--platforms a,b,...] [--horizon Y]\n"
         "                  [--utilization U] [--samples N] [--seed S]\n"
         "                  [--json <out.json>] [--csv <out.csv>]\n"
         "      mixed-platform datacenter fleet: size each platform's fleet to a\n"
         "      24-hour traffic trace served across regional grid profiles, with\n"
         "      FPGA reconfiguration amortisation; --samples adds Table 1\n"
         "      Monte-Carlo bands over the fleet totals\n"
         "  greenfpga compare <scenario.json> [--json <out.json>] [--markdown <out.md>]\n"
         "      evaluate a scenario file (see `greenfpga dump-config` for the shape)\n"
         "  greenfpga sweep <dnn|imgproc|crypto> <apps|lifetime|volume>\n"
         "      run one of the paper's sweep experiments on a built-in testcase\n"
         "  greenfpga industry\n"
         "      evaluate the Table 3 industry testcases (paper Figs. 10-11)\n"
         "  greenfpga nodes <dnn|imgproc|crypto>\n"
         "      rank fabrication nodes for the domain's FPGA by lifecycle CFP\n"
         "  greenfpga figures\n"
         "      run every paper experiment; print measured crossovers vs paper\n"
         "  greenfpga dump-config\n"
         "      print the calibrated paper-default model suite as JSON\n"
         "\n"
         "  --threads N sets the engine worker count (default: the\n"
         "  GREENFPGA_THREADS environment variable, else hardware concurrency).\n"
         "  --format selects the renderer: text (default), json (canonical result\n"
         "  JSON, byte-identical at any --threads), csv, md.\n"
         "  --output writes the rendered output to a file (for `batch`: the\n"
         "  results directory).\n";
  return error ? 2 : 0;
}

int run_spec(const CommandContext& context, const Args& args, std::ostream& out,
             std::ostream& /*err*/) {
  expect_positionals("run", args, 1, "missing spec file");
  // load_spec reports parse/validation errors with the spec path and the
  // offending key, so a bad file fails with an actionable message.
  const scenario::ScenarioSpec spec = scenario::load_spec(args.positional[0]);
  if (args.has("--csv") && !exports_samples(spec)) {
    throw CliError("run: --csv exports Monte-Carlo samples; spec '" + spec.name +
                   "' has kind " + to_string(spec.kind));
  }
  return run_and_emit(context, spec, args, out);
}

int run_serve(const CommandContext& context, const Args& args, std::ostream& out,
              std::ostream& /*err*/) {
  expect_positionals("serve", args, 0, "");
  const auto number = [&args](std::string_view flag, long fallback, long lo, long hi,
                              std::string_view range) {
    return number_flag("serve", args, flag, fallback, lo, hi, range);
  };
  serve::ServerOptions server_options;
  server_options.port =
      static_cast<int>(number("--port", 8080, 0, 65535, "0..65535; 0 = ephemeral"));
  server_options.host = args.last("--host").value_or(server_options.host);
  const auto cache_capacity = static_cast<std::size_t>(
      number("--cache-capacity", 1024, 1, 1'000'000'000, ">= 1"));
  const auto cache_shards =
      static_cast<std::size_t>(number("--cache-shards", 8, 1, 4096, "1..4096"));
  server_options.io_timeout_ms = static_cast<int>(number(
      "--io-timeout-ms", server_options.io_timeout_ms, 0, 3'600'000, "0..3600000; 0 disables"));
  server_options.idle_timeout_ms =
      static_cast<int>(number("--idle-timeout-ms", server_options.idle_timeout_ms, 0,
                              86'400'000, "0..86400000; 0 disables"));
  server_options.max_connections = static_cast<int>(
      number("--max-connections", server_options.max_connections, 1, 65536, ">= 1"));
  const std::string cache_dir = args.last("--cache-dir").value_or("");
  if (args.has("--cache-dir") && cache_dir.empty()) {
    throw CliError("serve: invalid --cache-dir '' (non-empty path)");
  }
  std::optional<serve::ServeContext> serve_context;
  try {
    serve_context.emplace(scenario::EngineOptions{.threads = context.threads},
                          cache_capacity, cache_shards, cache_dir);
  } catch (const std::runtime_error& error) {
    throw CliError("serve: " + std::string(error.what()));
  }
  serve::Server server(serve::make_router(*serve_context), server_options);
  server.start();
  // Flush before blocking: supervisors and the CI smoke step wait for
  // this line to know the port (essential with --port 0).
  out << "greenfpga serve listening on http://" << server_options.host << ":"
      << server.port() << " (cache capacity " << cache_capacity << " in "
      << cache_shards << " shard(s), "
      << serve_context->engine().threads() << " worker thread(s)"
      << (cache_dir.empty() ? std::string() : ", cache dir " + cache_dir) << ")"
      << std::endl;
  server.wait();
  return 0;
}

int run_compare(const CommandContext& context, const Args& args, std::ostream& out,
                std::ostream& /*err*/) {
  expect_positionals("compare", args, 1, "missing scenario file");
  const core::ScenarioConfig scenario = core::load_scenario(args.positional[0]);
  scenario::ScenarioSpec spec;
  spec.name = scenario.name;
  spec.kind = scenario::ScenarioKind::compare;
  spec.suite = scenario.suite;
  spec.platforms = {scenario::PlatformRef{.name = "asic", .chip = scenario.asic},
                    scenario::PlatformRef{.name = "fpga", .chip = scenario.fpga}};
  spec.schedule.explicit_schedule = scenario.schedule;
  const scenario::ScenarioResult result = make_engine(context).run(spec);
  const core::Comparison comparison = result.comparison();

  if (context.format == report::OutputFormat::text) {
    // The classic component-stack view plus the verdict line.
    emit(
        context,
        [&](std::ostream& stream) {
          stream << "== " << scenario.name << " ==\n";
          const std::vector<std::pair<std::string, core::CfpBreakdown>> platforms{
              {"ASIC", comparison.asic.total},
              {"FPGA", comparison.fpga.total},
          };
          stream << report::breakdown_table(platforms) << "FPGA:ASIC ratio "
                 << units::format_significant(comparison.ratio(), 4)
                 << " -> greener platform: " << to_string(comparison.verdict()) << "\n\n";
        },
        out);
  } else {
    emit_result(context, result, out);
  }

  if (const std::optional<std::string> path = args.last("--json")) {
    io::Json report = io::Json::object();
    report["scenario"] = scenario.name;
    report["asic"] = core::to_json(comparison.asic);
    report["fpga"] = core::to_json(comparison.fpga);
    report["ratio"] = comparison.ratio();
    report["greener"] = to_string(comparison.verdict());
    write_output("--json", *path, json_render(std::move(report)), out);
  }
  if (const std::optional<std::string> path = args.last("--markdown")) {
    report::MarkdownReportInputs inputs;
    inputs.scenario = scenario;
    inputs.comparison = comparison;
    inputs.uncertainty =
        scenario::monte_carlo(scenario.suite,
                              device::DomainTestcase{.domain = device::Domain::dnn,
                                                     .asic = scenario.asic,
                                                     .fpga = scenario.fpga},
                              scenario.schedule, scenario::table1_ranges(), 128);
    write_output(
        "--markdown", *path,
        [&inputs](std::ostream& stream) { stream << report::render_markdown_report(inputs); },
        out);
  }
  return 0;
}

int run_industry(const CommandContext& context, const Args& args, std::ostream& out,
                 std::ostream& /*err*/) {
  expect_positionals("industry", args, 0, "");
  const core::LifecycleModel model(core::industry_suite());

  // Fig. 10 setup: each FPGA runs 6 years / 3 applications / 1M volume.
  workload::Application fpga_app;
  fpga_app.name = "industry-fpga-app";
  fpga_app.lifetime = 2.0 * units::unit::years;
  fpga_app.volume = 1e6;
  const workload::Schedule fpga_schedule = workload::homogeneous_schedule(3, fpga_app);

  // Fig. 11 setup: one 6-year application, never reprogrammed.
  workload::Application asic_app;
  asic_app.name = "industry-asic-app";
  asic_app.lifetime = 6.0 * units::unit::years;
  asic_app.volume = 1e6;
  const workload::Schedule asic_schedule{asic_app};

  std::vector<std::pair<std::string, core::CfpBreakdown>> rows;
  for (const device::ChipSpec& fpga : {device::industry_fpga1(), device::industry_fpga2()}) {
    rows.emplace_back(fpga.name, model.evaluate_fpga(fpga, fpga_schedule).total);
  }
  for (const device::ChipSpec& asic : {device::industry_asic1(), device::industry_asic2()}) {
    rows.emplace_back(asic.name, model.evaluate_asic(asic, asic_schedule).total);
  }
  const std::vector<report::ResultFrame> frames{
      report::breakdown_frame("industry", rows)};
  emit(
      context,
      [&](std::ostream& stream) {
        if (context.format == report::OutputFormat::text) {
          stream << "== Industry testcases (Table 3; FPGAs: 6 y / 3 apps / 1M; "
                    "ASICs: 6 y / 1M) ==\n"
                 << report::breakdown_table(rows);
        } else {
          report::render_frames(frames, context.format, stream);
        }
      },
      out);
  return 0;
}

int run_figures(const CommandContext& context, const Args& args, std::ostream& out,
                std::ostream& /*err*/) {
  expect_positionals("figures", args, 0, "");
  const scenario::Engine engine = make_engine(context);
  const auto sweep_series = [&](device::Domain domain, scenario::AxisSpec axis) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::make(scenario::ScenarioKind::sweep, domain);
    spec.axes = {std::move(axis)};
    return engine.run(spec).sweep_series();
  };

  report::ResultFrame frame;
  frame.name = "paper-vs-measured";
  frame.columns = {report::Column{.name = "experiment", .unit = ""},
                   report::Column{.name = "domain", .unit = ""},
                   report::Column{.name = "paper", .unit = ""},
                   report::Column{.name = "measured", .unit = ""}};
  const auto fmt = [](const std::optional<double>& x) {
    return x ? units::format_significant(*x, 4) : std::string("none");
  };

  for (const device::Domain domain : device::all_domains()) {
    const auto fig4 = sweep_series(
        domain, scenario::AxisSpec::linear(scenario::SweepVariable::app_count, 1, 16, 16));
    const auto a2f = first_crossover(fig4.crossovers(), scenario::CrossoverKind::a2f);
    const char* paper_a2f = domain == device::Domain::dnn       ? "~6"
                            : domain == device::Domain::imgproc ? "~12 (past 8)"
                                                                : "1 (immediate)";
    frame.add_row({report::Cell(std::string("Fig. 4 A2F [apps]")),
                   report::Cell(to_string(domain)), report::Cell(std::string(paper_a2f)),
                   report::Cell(fmt(a2f))});

    const auto fig5 = sweep_series(
        domain,
        scenario::AxisSpec::linear(scenario::SweepVariable::lifetime_years, 0.2, 2.5, 47));
    const auto f2a_t = first_crossover(fig5.crossovers(), scenario::CrossoverKind::f2a);
    const char* paper_f2a_t = domain == device::Domain::dnn       ? "~1.6"
                              : domain == device::Domain::imgproc ? "none (ASIC)"
                                                                  : "none (FPGA)";
    frame.add_row({report::Cell(std::string("Fig. 5 F2A [years]")),
                   report::Cell(to_string(domain)), report::Cell(std::string(paper_f2a_t)),
                   report::Cell(fmt(f2a_t))});

    const auto fig6 = sweep_series(
        domain, scenario::AxisSpec::log(scenario::SweepVariable::volume, 1e3, 1e7, 41));
    const auto f2a_v = first_crossover(fig6.crossovers(), scenario::CrossoverKind::f2a);
    const char* paper_f2a_v = domain == device::Domain::dnn       ? "~2e6"
                              : domain == device::Domain::imgproc ? "~3e5"
                                                                  : "none (FPGA)";
    frame.add_row({report::Cell(std::string("Fig. 6 F2A [units]")),
                   report::Cell(to_string(domain)), report::Cell(std::string(paper_f2a_v)),
                   report::Cell(fmt(f2a_v))});
  }

  scenario::ScenarioSpec fig2_spec =
      scenario::ScenarioSpec::make(scenario::ScenarioKind::compare, device::Domain::dnn);
  fig2_spec.schedule.app_count = 10;
  const double fig2 = engine.run(fig2_spec).comparison().ratio();
  frame.add_row({report::Cell(std::string("Fig. 2 FPGA saving at 10 apps")),
                 report::Cell(std::string("DNN")), report::Cell(std::string("~25 %")),
                 report::Cell(units::format_significant(100.0 * (1.0 - fig2), 4) + " %")});

  const std::vector<report::ResultFrame> frames{std::move(frame)};
  emit(
      context,
      [&](std::ostream& stream) {
        if (context.format == report::OutputFormat::text) {
          stream << "== paper-vs-measured headline summary (see EXPERIMENTS.md for "
                    "analysis) ==\n";
        }
        report::render_frames(frames, context.format, stream);
      },
      out);
  return 0;
}

int run_dump_config(const CommandContext& context, const Args& args, std::ostream& out,
                    std::ostream& /*err*/) {
  expect_positionals("dump-config", args, 0, "");
  if (context.format != report::OutputFormat::text &&
      context.format != report::OutputFormat::json) {
    throw CliError("dump-config: --format " + to_string(context.format) +
                   " not supported (the dump is JSON; use text or json)");
  }
  io::Json scenario = io::Json::object();
  scenario["name"] = "example scenario (edit me)";
  scenario["suite"] = core::to_json(core::paper_suite());
  const device::DomainTestcase testcase = device::domain_testcase(device::Domain::dnn);
  scenario["asic"] = core::to_json(testcase.asic);
  scenario["fpga"] = core::to_json(testcase.fpga);
  scenario["schedule"] = core::to_json(core::paper_schedule(device::Domain::dnn));
  emit(context, json_render(std::move(scenario)), out);
  return 0;
}

int run_batch(const CommandContext& context, const Args& args, std::ostream& out,
              std::ostream& /*err*/) {
  expect_positionals("batch", args, 1, "expected <manifest.json|directory> [--validate]");
  namespace fs = std::filesystem;
  const fs::path target(args.positional[0]);

  // Collect, parse and prepare the spec files (parse and resolve errors
  // name the offending file): every *.json in a directory -- each read
  // once; manifests, i.e. objects with a "specs" key, are skipped -- or
  // the manifest's listed paths, resolved relative to the manifest.
  const scenario::Engine engine = make_engine(context);
  std::vector<fs::path> spec_paths;
  std::vector<scenario::Engine::PreparedRun> prepared;
  const auto add = [&](const fs::path& path, const scenario::ScenarioSpec& spec) {
    try {
      prepared.push_back(engine.prepare(spec));
    } catch (const std::exception& error) {
      throw core::ConfigError("spec file '" + path.string() + "': " + error.what());
    }
    spec_paths.push_back(path);
  };
  if (fs::is_directory(target)) {
    std::vector<fs::path> candidates;
    for (const fs::directory_entry& entry : fs::directory_iterator(target)) {
      if (entry.path().extension() == ".json" && entry.is_regular_file()) {
        candidates.push_back(entry.path());
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const fs::path& path : candidates) {
      const io::Json parsed = io::parse_json_file(path.string());
      if (parsed.is_object() && parsed.contains("specs")) {
        continue;  // a manifest living next to its specs
      }
      add(path, scenario::load_spec_json(parsed, path.string()));
    }
  } else {
    const io::Json manifest = io::parse_json_file(target.string());
    core::check_known_keys(manifest, "batch manifest '" + target.string() + "'",
                           {"name", "specs"});
    for (const io::Json& entry : manifest.at("specs").as_array()) {
      const fs::path listed(entry.as_string());
      const fs::path path = listed.is_absolute() ? listed : target.parent_path() / listed;
      add(path, scenario::load_spec(path.string()));
    }
  }
  if (spec_paths.empty()) {
    throw CliError("batch: no scenario specs found in '" + args.positional[0] + "'");
  }

  const std::vector<scenario::ScenarioResult> results = engine.run_batch(std::move(prepared));

  // Per-spec result JSON under the output directory, named after the spec
  // file (collisions get a numeric suffix so nothing is overwritten;
  // "index.json" is reserved for the aggregate index written below).
  const std::string out_dir = context.output.value_or("batch_results");
  std::vector<std::string> taken{"index.json"};
  std::vector<std::string> filenames;
  filenames.reserve(results.size());
  for (const fs::path& path : spec_paths) {
    std::string stem = path.stem().string();
    std::string candidate = stem + ".json";
    int suffix = 2;
    while (std::find(taken.begin(), taken.end(), candidate) != taken.end()) {
      candidate = stem + "-" + std::to_string(suffix++) + ".json";
    }
    taken.push_back(candidate);
    filenames.push_back(std::move(candidate));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    io::write_json_file((fs::path(out_dir) / filenames[i]).string(),
                        scenario::result_to_json(results[i]));
  }

  if (args.has("--validate")) {
    // Each written file must parse, and its canonical compact dump must
    // equal the in-memory result's: the text is a fixed point of the
    // writer, so no result reader is needed to check it.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string path = (fs::path(out_dir) / filenames[i]).string();
      if (io::parse_json_file(path).dump(0) !=
          scenario::result_to_json(results[i]).dump(0)) {
        throw CliError("batch: result '" + path + "' failed the canonical round-trip", 1);
      }
    }
  }

  // Aggregate index: one row per spec with its headline numbers and the
  // result file it lowered into.
  report::ResultFrame index;
  index.name = "batch";
  index.columns = {report::Column{.name = "spec", .unit = ""},
                   report::Column{.name = "scenario", .unit = ""},
                   report::Column{.name = "kind", .unit = ""},
                   report::Column{.name = "domain", .unit = ""},
                   report::Column{.name = "platforms", .unit = "", .precision = 4},
                   report::Column{.name = "points", .unit = "", .precision = 6},
                   report::Column{.name = "baseline total", .unit = "t CO2e",
                                  .precision = 5},
                   report::Column{.name = "ratio", .unit = "", .precision = 4},
                   report::Column{.name = "result", .unit = ""}};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const scenario::ScenarioResult& result = results[i];
    report::Cell total(nullptr);
    report::Cell ratio(nullptr);
    if (!result.points.empty()) {
      total = result.points.front().platforms.front().total.total().in(
          units::unit::t_co2e);
      if (result.points.front().platforms.size() > 1) {
        ratio = result.points.front().ratio(1);
      }
    }
    index.add_row({report::Cell(spec_paths[i].filename().string()),
                   report::Cell(result.spec.name),
                   report::Cell(to_string(result.spec.kind)),
                   report::Cell(to_string(result.spec.domain)),
                   report::Cell(static_cast<double>(result.platform_names.size())),
                   report::Cell(static_cast<double>(result.points.size())), total, ratio,
                   report::Cell(filenames[i])});
  }
  io::write_json_file((fs::path(out_dir) / "index.json").string(),
                      report::frame_to_json(index));

  const std::vector<report::ResultFrame> frames{std::move(index)};
  report::render_frames(frames, context.format, out);
  if (context.format == report::OutputFormat::text) {
    // Keep the machine formats pure: the summary line is text-only.
    out << "wrote " << results.size() << " result(s) + index.json to " << out_dir
        << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The command table
// ---------------------------------------------------------------------------

// Axis presets (an omitted "scale" is linear); custom ranges go through
// `greenfpga run`.
constexpr Preset kSweepAxes[] = {
    {"apps", R"({"variable": "app_count", "from": 1, "to": 12, "count": 12})"},
    {"lifetime", R"({"variable": "lifetime_years", "from": 0.2, "to": 2.5, "count": 24})"},
    {"volume", R"({"variable": "volume", "scale": "log", "from": 1e3, "to": 1e7, "count": 25})"},
};
constexpr Preset kFrontierAxes[] = {
    {"apps", R"({"variable": "app_count", "from": 1, "to": 10, "count": 10})"},
    {"lifetime", R"({"variable": "lifetime_years", "from": 0.5, "to": 8, "count": 10})"},
    {"volume", R"({"variable": "volume", "scale": "log", "from": 1e4, "to": 1e7, "count": 10})"},
    {"node", R"({"variable": "node"})"},
};

constexpr Flag kSweepPositionals[] = {
    {.name = "variable", .path = "axes", .list = true, .presets = kSweepAxes},
};

constexpr Flag kMcFlags[] = {
    {.name = "--samples", .path = "montecarlo.samples"},
    {.name = "--seed", .path = "montecarlo.seed"},
    {.name = "--csv"},
    {.name = "--json"},
};

constexpr Flag kFleetFlags[] = {
    {.name = "--platforms", .path = "platforms", .list = true},
    {.name = "--horizon", .path = "fleet.horizon_years"},
    {.name = "--utilization", .path = "fleet.utilization"},
    {.name = "--samples", .path = "fleet.mc_samples"},
    {.name = "--seed", .path = "montecarlo.seed"},
    {.name = "--json"},
    {.name = "--csv"},
};

constexpr Flag kFrontierFlags[] = {
    {.name = "--platforms", .path = "platforms", .list = true},
    {.name = "--axes", .path = "frontier.axes", .list = true, .presets = kFrontierAxes},
    {.name = "--objective", .path = "frontier.objective"},
    {.name = "--samples", .path = "frontier.confidence_samples"},
    {.name = "--seed", .path = "frontier.seed"},
    {.name = "--json"},
};

constexpr Flag kGlobalFlags[] = {{"--threads"}, {"--format"}, {"--output"}};
constexpr Flag kRunFlags[] = {{"--json"}, {"--csv"}};
constexpr Flag kServeFlags[] = {
    {"--port"},      {"--host"},            {"--cache-capacity"}, {"--cache-shards"},
    {"--cache-dir"}, {"--max-connections"}, {"--io-timeout-ms"},  {"--idle-timeout-ms"},
};
constexpr Flag kBatchFlags[] = {{.name = "--validate", .takes_value = false}};
constexpr Flag kCompareFlags[] = {{"--json"}, {"--markdown"}};

const Command kCommands[] = {
    {.name = "run", .flags = kRunFlags, .run = run_spec},
    {.name = "serve", .flags = kServeFlags, .run = run_serve},
    {.name = "batch", .flags = kBatchFlags, .run = run_batch},
    {.name = "frontier",
     .flags = kFrontierFlags,
     .kind = "frontier",
     .base = R"({"platforms": ["asic", "fpga", "gpu", "cpu"]})",
     .title = [](const std::string& domain, const io::Json& spec) {
       return domain + " platform frontier: " + joined_platforms(spec, " vs ");
     }},
    {.name = "mc",
     .flags = kMcFlags,
     .kind = "montecarlo",
     .title = [](const std::string& domain, const io::Json&) {
       return domain + " Monte-Carlo uncertainty";
     }},
    {.name = "fleet",
     .flags = kFleetFlags,
     .kind = "fleet",
     .title = [](const std::string& domain, const io::Json& spec) {
       const std::string platforms = joined_platforms(spec, " + ");
       return domain + " datacenter fleet" + (platforms.empty() ? "" : ": " + platforms);
     }},
    {.name = "compare", .flags = kCompareFlags, .run = run_compare},
    {.name = "sweep",
     .kind = "sweep",
     .positionals = kSweepPositionals,
     .title = [](const std::string& domain, const io::Json& spec) {
       const auto variable =
           scenario::parse_sweep_variable(spec.at("axes").at(0).at("variable").as_string());
       return domain + " sweep over " + scenario::AxisSpec::list(*variable, {}).label();
     }},
    {.name = "industry", .run = run_industry},
    {.name = "nodes",
     .kind = "node_dse",
     .title = [](const std::string& domain, const io::Json&) {
       return "node ranking for the " + domain + " FPGA (paper schedule: 5 apps x 2 y x 1M)";
     }},
    {.name = "figures", .run = run_figures},
    {.name = "dump-config", .run = run_dump_config},
};

const Command* find_command(std::string_view name) {
  const auto command = std::find_if(std::begin(kCommands), std::end(kCommands),
                                    [name](const Command& each) { return each.name == name; });
  return command == std::end(kCommands) ? nullptr : &*command;
}

}  // namespace

std::optional<std::vector<std::string>> command_flags(std::string_view command) {
  std::span<const Flag> table = kGlobalFlags;
  if (!command.empty()) {
    const Command* found = find_command(command);
    if (found == nullptr) {
      return std::nullopt;
    }
    table = found->flags;
  }
  std::vector<std::string> names;
  for (const Flag& flag : table) {
    names.emplace_back(flag.name);
  }
  return names;
}

int dispatch(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    // The global flags are valid anywhere before/after the command name.
    const Args global = parse_flags("greenfpga", args, kGlobalFlags, /*pass_unknown=*/true);
    CommandContext context;
    // Same strict rules as the GREENFPGA_THREADS environment path; the
    // engine clamps to its kMaxThreads pool bound (0 = that default).
    context.threads = static_cast<int>(
        std::min<long>(number_flag("greenfpga", global, "--threads", 0, 1, LONG_MAX,
                                   "a worker count >= 1"),
                       scenario::Engine::kMaxThreads));
    if (const std::optional<std::string> text = global.last("--format")) {
      const auto format = report::parse_output_format(*text);
      if (!format) {
        throw CliError("--format: unknown format '" + *text + "' (text, json, csv, md)");
      }
      context.format = *format;
    }
    context.output = global.last("--output");

    const std::vector<std::string>& rest = global.positional;
    if (rest.empty()) {
      return print_usage(err);
    }
    if (rest[0] == "--help" || rest[0] == "-h" || rest[0] == "help") {
      return print_usage(out, /*error=*/false);
    }
    const Command* command = find_command(rest[0]);
    if (command == nullptr) {
      err << "unknown command '" << rest[0] << "'\n";
      return print_usage(err);
    }
    const Args parsed = parse_flags(
        command->name, std::vector<std::string>(rest.begin() + 1, rest.end()), command->flags);
    return command->run != nullptr ? command->run(context, parsed, out, err)
                                   : run_shorthand(*command, context, parsed, out);
  } catch (const CliError& error) {
    err << error.what() << "\n";
    return error.code;
  } catch (const std::exception& error) {
    err << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace greenfpga::cli
