/// \file bodies.cpp
/// Seeded spec bodies for the benchmark workloads.

#include "bodies.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

using greenfpga::io::Json;

const std::vector<std::string> kDomains = {"dnn", "imgproc", "crypto"};
const std::vector<std::string> kNodes = {"28nm", "20nm", "16nm", "14nm", "12nm",
                                         "10nm", "8nm",  "7nm",  "5nm",  "3nm"};
const std::vector<std::string> kProfiles = {"uniform", "solar_duck", "windy_night"};
const std::vector<std::string> kPolicies = {"uniform", "carbon_aware", "worst_case"};

std::string number(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.6g", value);
  return text;
}

std::string json_string(const std::string& text) { return "\"" + text + "\""; }

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += items[i];
  }
  return out + "]";
}

/// A JSON object whose members render in sorted key order.
class Obj {
 public:
  Obj& raw(std::string key, std::string value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Obj& num(std::string key, double value) { return raw(std::move(key), number(value)); }
  Obj& str(std::string key, const std::string& value) {
    return raw(std::move(key), json_string(value));
  }
  Obj& flag(std::string key, bool value) {
    return raw(std::move(key), value ? "true" : "false");
  }
  Obj& obj(std::string key, const Obj& value) { return raw(std::move(key), value.text()); }

  [[nodiscard]] std::string text() const {
    std::vector<std::pair<std::string, std::string>> sorted = members_;
    std::sort(sorted.begin(), sorted.end());
    std::string out = "{";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += json_string(sorted[i].first) + ":" + sorted[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

int draw(Rng& rng, Span2 span) { return rng.range(span.lo, std::max(span.lo, span.hi)); }

double round_to(double value, double step) { return std::round(value / step) * step; }

/// Three significant digits.
double significant3(double value) {
  const double scale = std::pow(10.0, std::floor(std::log10(value)) - 2.0);
  return std::round(value / scale) * scale;
}

/// `platforms` names drawn from the pool, in a seeded order.
std::string platform_list(Rng& rng, const Caps& caps) {
  std::vector<std::string> names = caps.platform_pool;
  rng.shuffle(names);
  names.resize(std::min(names.size(), static_cast<std::size_t>(std::max(1, draw(rng, caps.platforms)))));
  std::vector<std::string> items;
  for (const std::string& name : names) {
    items.push_back(json_string(name));
  }
  return array(items);
}

std::string asic_fpga(Rng& rng) {
  return rng.chance(0.5) ? R"(["asic","fpga"])" : R"(["fpga","asic"])";
}

/// N_app apps of T_i years each, kept inside one 15-year FPGA service
/// life (the breakeven solvers' precondition; their lifetime solve also
/// probes T_i = 2 years, hence `max_apps` 7 there).
Obj schedule(Rng& rng, const Caps& caps, int max_apps = 10) {
  Obj out;
  const int apps = rng.range(caps.app_count.lo, std::min(caps.app_count.hi, max_apps));
  out.num("app_count", apps);
  out.num("lifetime_years", round_to(rng.uniform(0.5, std::min(4.0, 14.0 / apps)), 0.01));
  out.num("volume", significant3(std::pow(10.0, rng.uniform(3.0, 7.0))));
  return out;
}

Obj axis(Rng& rng, const std::string& variable, int count) {
  Obj out;
  out.str("variable", variable).num("count", count);
  if (variable == "app_count") {
    out.str("scale", "linear").num("from", 1).num("to", count);
  } else if (variable == "lifetime_years") {
    out.str("scale", "linear")
        .num("from", round_to(rng.uniform(0.2, 1.0), 0.1))
        .num("to", round_to(rng.uniform(3.0, 6.0), 0.1));
  } else {
    out.str("scale", "log")
        .num("from", std::pow(10.0, rng.range(3, 4)))
        .num("to", std::pow(10.0, rng.range(6, 7)));
  }
  return out;
}

/// Two distinct axis variables, in a seeded order.
std::pair<std::string, std::string> two_variables(Rng& rng, const Caps& caps) {
  std::vector<std::string> variables = caps.axis_variables;
  rng.shuffle(variables);
  return {variables[0], variables[1]};
}

void maybe_grid_profile(Rng& rng, Obj& spec) {
  if (rng.chance(0.4)) {
    spec.obj("grid_profile",
             Obj().str("profile", rng.pick(kProfiles)).str("policy", rng.pick(kPolicies)));
  }
}

Obj fleet_section(Rng& rng, const Caps& caps) {
  std::vector<std::string> regions;
  const int region_count = draw(rng, caps.fleet_regions);
  double weight_left = 1.0;
  for (int r = 0; r < region_count; ++r) {
    const double weight =
        r + 1 == region_count ? weight_left : round_to(rng.uniform(0.3, 0.7), 0.05);
    weight_left -= weight;
    regions.push_back(Obj().str("name", "region-" + std::to_string(r))
                          .str("profile", rng.pick(kProfiles))
                          .num("weight", round_to(weight, 0.05))
                          .num("intensity_scale", round_to(rng.uniform(0.5, 1.2), 0.05))
                          .text());
  }
  std::vector<std::string> services;
  const int service_count = draw(rng, caps.fleet_services);
  for (int s = 0; s < service_count; ++s) {
    std::vector<std::string> trace;
    if (rng.chance(0.7)) {
      for (int hour = 0; hour < 24; ++hour) {
        trace.push_back(number(round_to(rng.uniform(0.25, 1.0), 0.01)));
      }
    }
    services.push_back(Obj().str("name", "service-" + std::to_string(s))
                           .num("peak_load", significant3(rng.uniform(2e4, 2e5)))
                           .raw("trace", array(trace))
                           .text());
  }
  return Obj()
      .num("horizon_years", rng.range(3, 8))
      .num("utilization", round_to(rng.uniform(0.5, 0.9), 0.05))
      .num("reconfig_overhead_hours", round_to(rng.uniform(0.1, 1.0), 0.1))
      .num("mc_samples", draw(rng, caps.fleet_mc_samples))
      .raw("regions", array(regions))
      .raw("services", array(services));
}

}  // namespace

std::string make_spec(const std::string& kind, std::uint64_t stream, const Caps& caps,
                      const std::string& name) {
  Rng rng(stream);
  Obj spec;
  spec.str("name", name).str("kind", kind).str("domain", rng.pick(kDomains));
  if (kind == "compare") {
    spec.raw("platforms", platform_list(rng, caps));
    spec.obj("schedule", schedule(rng, caps));
    maybe_grid_profile(rng, spec);
  } else if (kind == "sweep") {
    spec.raw("platforms", platform_list(rng, caps));
    spec.obj("schedule", schedule(rng, caps));
    spec.raw("axes", array({axis(rng, rng.pick(caps.axis_variables), draw(rng, caps.sweep_points))
                                .text()}));
    maybe_grid_profile(rng, spec);
  } else if (kind == "grid") {
    spec.raw("platforms", platform_list(rng, caps));
    spec.obj("schedule", schedule(rng, caps));
    const auto [x, y] = two_variables(rng, caps);
    spec.raw("axes", array({axis(rng, x, draw(rng, caps.grid_side)).text(),
                            axis(rng, y, draw(rng, caps.grid_side)).text()}));
    maybe_grid_profile(rng, spec);
  } else if (kind == "breakeven") {
    spec.raw("platforms", asic_fpga(rng));
    spec.obj("schedule", schedule(rng, caps, 7));
    const int solves = rng.range(1, 7);  // a non-empty subset of the three solves
    spec.obj("breakeven", Obj().flag("solve_app_count", (solves & 1) != 0)
                              .flag("solve_lifetime", (solves & 2) != 0)
                              .flag("solve_volume", (solves & 4) != 0));
  } else if (kind == "timeline") {
    spec.raw("platforms", asic_fpga(rng));
    spec.obj("schedule", schedule(rng, caps));
    spec.obj("timeline", Obj().num("horizon_years", rng.range(10, 45))
                             .num("step_years", rng.pick(std::vector<double>{0.25, 0.5, 1.0})));
  } else if (kind == "node_dse") {
    spec.raw("platforms", array({json_string(rng.pick(std::vector<std::string>{"fpga", "asic", "gpu"}))}));
    spec.obj("schedule", schedule(rng, caps));
    const int count = draw(rng, caps.dse_nodes);
    if (count > 0) {
      std::vector<std::string> nodes = kNodes;
      rng.shuffle(nodes);
      nodes.resize(static_cast<std::size_t>(std::min<int>(count, 10)));
      // Older nodes cannot yield the large FPGA dies; keep one that can.
      if (std::find(nodes.begin(), nodes.end(), "7nm") == nodes.end()) {
        nodes.back() = "7nm";
      }
      std::vector<std::string> items;
      for (const std::string& node : nodes) {
        items.push_back(json_string(node));
      }
      spec.obj("dse", Obj().raw("nodes", array(items)));
    }
  } else if (kind == "montecarlo") {
    spec.raw("platforms", platform_list(rng, caps));
    spec.obj("schedule", schedule(rng, caps));
    spec.obj("montecarlo", Obj().num("samples", draw(rng, caps.mc_samples))
                               .num("seed", rng.range(1, 1000000)));
  } else if (kind == "sensitivity") {
    spec.raw("platforms", asic_fpga(rng));
    spec.obj("schedule", schedule(rng, caps));
    spec.obj("sensitivity", Obj().flag("run_tornado", true)
                                .flag("run_monte_carlo", true)
                                .num("samples", draw(rng, caps.sensitivity_samples))
                                .num("seed", rng.range(1, 1000000)));
  } else if (kind == "frontier") {
    spec.raw("platforms", platform_list(rng, caps));
    spec.obj("schedule", schedule(rng, caps));
    const auto [x, y] = two_variables(rng, caps);
    const int side = draw(rng, caps.frontier_side);
    spec.obj("frontier",
             Obj().raw("axes", array({axis(rng, x, side).text(), axis(rng, y, side).text()}))
                 .str("objective", rng.pick(std::vector<std::string>{"total", "embodied"}))
                 .num("confidence_samples", draw(rng, caps.frontier_confidence))
                 .num("seed", rng.range(1, 1000000)));
  } else if (kind == "fleet") {
    spec.raw("platforms", platform_list(rng, caps));
    spec.obj("fleet", fleet_section(rng, caps));
    spec.obj("montecarlo", Obj().num("seed", rng.range(1, 1000000)));
  } else {
    throw std::invalid_argument("perfbench: no generator for kind '" + kind + "'");
  }
  return spec.text();
}

Mix mix_from_json(const Json& json) {
  Mix mix;
  for (const auto& [kind, weight] : json.at("kinds").as_object()) {
    mix.kinds.emplace_back(kind, static_cast<int>(weight.as_number()));
  }
  if (json.contains("caps")) {
    const Json& caps = json.at("caps");
    auto span = [&caps](const char* key, Span2& out) {
      if (caps.contains(key)) {
        out.lo = static_cast<int>(caps.at(key).at(0).as_number());
        out.hi = static_cast<int>(caps.at(key).at(1).as_number());
      }
    };
    span("platforms", mix.caps.platforms);
    span("sweep_points", mix.caps.sweep_points);
    span("grid_side", mix.caps.grid_side);
    span("mc_samples", mix.caps.mc_samples);
    span("frontier_side", mix.caps.frontier_side);
    span("frontier_confidence", mix.caps.frontier_confidence);
    span("fleet_mc_samples", mix.caps.fleet_mc_samples);
    span("sensitivity_samples", mix.caps.sensitivity_samples);
    span("dse_nodes", mix.caps.dse_nodes);
    span("app_count", mix.caps.app_count);
    span("fleet_regions", mix.caps.fleet_regions);
    span("fleet_services", mix.caps.fleet_services);
    if (caps.contains("platform_pool")) {
      mix.caps.platform_pool.clear();
      for (const Json& name : caps.at("platform_pool").as_array()) {
        mix.caps.platform_pool.push_back(name.as_string());
      }
    }
    if (caps.contains("axis_variables")) {
      mix.caps.axis_variables.clear();
      for (const Json& variable : caps.at("axis_variables").as_array()) {
        mix.caps.axis_variables.push_back(variable.as_string());
      }
    }
  }
  return mix;
}

BodySet generate(const Mix& mix, std::uint64_t seed, std::uint64_t purpose, std::size_t count,
                 const std::string& name_prefix) {
  std::vector<std::string> block;
  for (const auto& [kind, weight] : mix.kinds) {
    block.insert(block.end(), static_cast<std::size_t>(weight), kind);
  }
  if (block.empty()) {
    throw std::invalid_argument("perfbench: empty kind mix");
  }
  BodySet set;
  set.bodies.reserve(count);
  std::vector<std::string> shuffled;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t in_block = i % block.size();
    if (in_block == 0) {
      shuffled = block;
      Rng order(stream_seed(seed, purpose, i / block.size()));
      order.shuffle(shuffled);
    }
    const std::string& kind = shuffled[in_block];
    set.bodies.push_back(make_spec(kind, stream_seed(seed, purpose + 1, i), mix.caps,
                                   name_prefix + " " + std::to_string(i)));
    set.kinds.push_back(kind);
    set.order.push_back(static_cast<std::uint32_t>(i));
  }
  return set;
}

std::vector<ExampleSpec> load_examples(const std::string& directory) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ExampleSpec> examples;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    ExampleSpec example;
    example.body = text.str();
    const Json parsed = greenfpga::io::parse_json(
        example.body, greenfpga::io::JsonParseOptions{.allow_comments = true});
    example.kind = parsed.string_or("kind", "compare");
    examples.push_back(std::move(example));
  }
  if (examples.empty()) {
    throw std::runtime_error("perfbench: no example specs under " + directory);
  }
  return examples;
}

BodySet hot_set(const std::vector<ExampleSpec>& examples, const Mix& mix,
                std::size_t generated, double example_share, std::uint64_t seed,
                std::size_t requests) {
  BodySet set = generate(mix, seed, /*purpose=*/10, generated, "hot");
  const std::size_t first_example = set.bodies.size();
  for (const ExampleSpec& example : examples) {
    set.bodies.push_back(example.body);
    set.kinds.push_back(example.kind);
  }
  set.order.clear();
  Rng rng(stream_seed(seed, /*purpose=*/12, 0));
  for (std::size_t i = 0; i < requests; ++i) {
    const bool example = rng.chance(example_share);
    const std::size_t index =
        example ? first_example + rng.next() % examples.size() : rng.next() % generated;
    set.order.push_back(static_cast<std::uint32_t>(index));
  }
  return set;
}

}  // namespace perfbench
