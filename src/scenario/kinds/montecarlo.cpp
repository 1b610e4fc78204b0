/// \file montecarlo.cpp
/// The montecarlo kind: uncertainty quantification over
/// distribution-sampled Table 1 parameters.

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/config_io.hpp"
#include "report/ascii_chart.hpp"
#include "report/result_frame.hpp"
#include "scenario/kinds/common.hpp"
#include "scenario/kinds/modules.hpp"

namespace greenfpga::scenario::kinds {

namespace {

using io::Json;

constexpr std::string_view kAliases[] = {"monte_carlo", "mc"};
constexpr std::string_view kSpecKeys[] = {"montecarlo"};

void seed_defaults(ScenarioSpec& spec) {
  spec.montecarlo.distributions = default_distributions();
}

/// Canonical form: only the fields the kind actually uses, so authors see
/// no spurious knobs and the round-trip stays byte-identical.
Json distribution_to_json(const core::ParamDistribution& distribution) {
  Json out = Json::object();
  out["parameter"] = distribution.parameter;
  out["kind"] = core::to_string(distribution.kind);
  out["low"] = distribution.low;
  out["high"] = distribution.high;
  if (distribution.kind == core::DistributionKind::normal) {
    out["mean"] = distribution.mean;
    out["stddev"] = distribution.stddev;
  } else if (distribution.kind == core::DistributionKind::triangular) {
    out["mode"] = distribution.mode;
  }
  return out;
}

core::ParamDistribution distribution_from_json(const Json& json) {
  core::check_known_keys(json, "distribution",
                         {"parameter", "kind", "low", "high", "mean", "stddev", "mode"});
  core::ParamDistribution distribution;
  distribution.parameter = json.string_or("parameter", "");
  if (distribution.parameter.empty()) {
    throw core::ConfigError("distribution entries need a \"parameter\" name");
  }
  // The named Table 1 range supplies the default support (and validates
  // the name): {"parameter": "E_des [GWh]"} alone is a complete entry.
  const std::vector<ParameterRange> known = table1_ranges();
  const auto range = std::find_if(known.begin(), known.end(), [&](const ParameterRange& r) {
    return r.name == distribution.parameter;
  });
  if (range == known.end()) {
    throw core::ConfigError("unknown distribution parameter \"" +
                            distribution.parameter + "\" (see table1_ranges)");
  }
  const std::string kind = json.string_or("kind", "uniform");
  const auto parsed_kind = core::parse_distribution_kind(kind);
  if (!parsed_kind) {
    throw core::ConfigError("distribution \"" + distribution.parameter +
                            "\": unknown kind \"" + kind +
                            "\" (uniform, normal, triangular)");
  }
  distribution.kind = *parsed_kind;
  const std::string context = "distribution \"" + distribution.parameter + "\"";
  // Kind-irrelevant fields are rejected, not ignored: a normal entry with
  // "kind" forgotten would otherwise silently sample uniform over the
  // full range and drop the author's mean/stddev.
  for (const std::string_view key : {"mean", "stddev"}) {
    if (distribution.kind != core::DistributionKind::normal && json.contains(key)) {
      throw core::ConfigError(context + ": \"" + std::string(key) +
                              "\" needs \"kind\": \"normal\"");
    }
  }
  if (distribution.kind != core::DistributionKind::triangular && json.contains("mode")) {
    throw core::ConfigError(context + ": \"mode\" needs \"kind\": \"triangular\"");
  }
  distribution.low = number_field_or(json, context, "low", range->low);
  distribution.high = number_field_or(json, context, "high", range->high);
  if (distribution.kind == core::DistributionKind::normal) {
    distribution.mean = number_field_or(json, context, "mean",
                                        0.5 * (distribution.low + distribution.high));
    distribution.stddev = number_field_or(json, context, "stddev",
                                          (distribution.high - distribution.low) / 4.0);
  } else if (distribution.kind == core::DistributionKind::triangular) {
    distribution.mode = number_field_or(json, context, "mode",
                                        0.5 * (distribution.low + distribution.high));
  }
  return distribution;
}

void params_to_json(const ScenarioSpec& spec, Json& out) {
  Json montecarlo = Json::object();
  montecarlo["samples"] = spec.montecarlo.samples;
  montecarlo["seed"] = static_cast<std::int64_t>(spec.montecarlo.seed);
  Json distributions = Json::array();
  for (const core::ParamDistribution& distribution : spec.montecarlo.distributions) {
    distributions.push_back(distribution_to_json(distribution));
  }
  montecarlo["distributions"] = std::move(distributions);
  Json percentiles = Json::array();
  for (const double p : spec.montecarlo.percentiles) {
    percentiles.push_back(p);
  }
  montecarlo["percentiles"] = std::move(percentiles);
  out["montecarlo"] = std::move(montecarlo);
}

void parse_params(const Json& json, ScenarioSpec& spec) {
  if (!json.contains("montecarlo")) {
    return;
  }
  const Json& entry = json.at("montecarlo");
  core::check_known_keys(entry, "montecarlo",
                         {"samples", "seed", "distributions", "percentiles"});
  MonteCarloUqSpec& montecarlo = spec.montecarlo;
  // Range-guarded integer reads (int_field_or rejects non-integral values
  // and out-of-range input instead of casting, which would be UB).
  montecarlo.samples = static_cast<int>(
      int_field_ctx(entry, "montecarlo", "samples", montecarlo.samples, 1,
                    10'000'000));
  montecarlo.seed = static_cast<unsigned>(
      int_field_ctx(entry, "montecarlo", "seed", montecarlo.seed, 0, 4294967295LL));
  if (entry.contains("distributions")) {
    montecarlo.distributions.clear();
    for (const Json& value : entry.at("distributions").as_array()) {
      montecarlo.distributions.push_back(distribution_from_json(value));
    }
  }
  if (entry.contains("percentiles")) {
    montecarlo.percentiles.clear();
    for (const Json& value : entry.at("percentiles").as_array()) {
      try {
        montecarlo.percentiles.push_back(value.as_number());
      } catch (const io::JsonError& error) {
        throw core::ConfigError("montecarlo.percentiles: " + std::string(error.what()));
      }
    }
  }
}

void validate(const ScenarioSpec& spec) {
  if (spec.montecarlo.samples < 1) {
    throw std::invalid_argument("ScenarioSpec '" + spec.name +
                                "': montecarlo needs at least one sample");
  }
  double previous = -1.0;
  for (const double p : spec.montecarlo.percentiles) {
    if (p < 0.0 || p > 100.0 || p <= previous) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec.name +
          "': montecarlo percentiles must be strictly increasing in [0, 100]");
    }
    previous = p;
  }
  validate_spec_distributions(spec);
}

/// Per-spec montecarlo context: the schedule plus the bound sampler.
struct McPlan {
  ParameterSampler sampler;
  workload::Schedule schedule;
};

McPlan plan_montecarlo(const ScenarioSpec& spec) {
  return McPlan{.sampler = ParameterSampler(spec.montecarlo.distributions),
                .schedule = spec.schedule.materialise(spec.domain)};
}

MonteCarloUq make_mc_skeleton(const ScenarioSpec& spec, std::size_t platforms) {
  MonteCarloUq uq;
  uq.samples = spec.montecarlo.samples;
  uq.percentiles = spec.montecarlo.percentiles;
  uq.sample_totals_kg.assign(
      platforms,
      std::vector<double>(static_cast<std::size_t>(spec.montecarlo.samples), 0.0));
  return uq;
}

/// Evaluate Monte-Carlo sample `i` into column i of `uq.sample_totals_kg`.
/// Sample i is counter-stream sample (seed, i) -- fully determined by the
/// sample index, never by which worker ran it or in what order.  Every
/// sample re-parameterises the suite, so the memoised per-worker model is
/// useless here: each sample builds its own LifecycleModel.
void evaluate_mc_sample(const ScenarioSpec& spec, const McPlan& plan,
                        const core::ModelSuite& suite,
                        const std::vector<device::ChipSpec>& chips, std::size_t i,
                        MonteCarloUq& uq) {
  core::ModelSuite sampled = suite;
  plan.sampler.draw(spec.montecarlo.seed, i, sampled);
  const core::LifecycleModel model(sampled);
  for (std::size_t p = 0; p < chips.size(); ++p) {
    uq.sample_totals_kg[p][i] =
        model.evaluate(chips[p], plan.schedule).total.total().canonical();
  }
}

void execute(const KindRunContext& context, const core::ModelSuite& suite,
             ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  const McPlan plan = plan_montecarlo(spec);
  MonteCarloUq uq = make_mc_skeleton(spec, result.resolved_chips.size());

  // Shard samples across the pool: every sample writes to pre-sized slot
  // i, so results are bit-identical for any thread count.
  core::parallel_for_state(
      static_cast<std::size_t>(spec.montecarlo.samples), context.threads,
      [] { return 0; },
      [&](int& /*state*/, std::size_t i) {
        evaluate_mc_sample(spec, plan, suite, result.resolved_chips, i, uq);
      });

  // Serial reduction on the caller's thread (deterministic order).
  reduce_montecarlo(uq);
  result.uncertainty = std::move(uq);
}

KindBatchPlan plan_jobs(const core::ModelSuite& suite, ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  KindBatchPlan plan;
  plan.task_count = static_cast<std::size_t>(spec.montecarlo.samples);
  plan.uses_suite_model = false;  // every sample re-parameterises the suite
  result.uncertainty = make_mc_skeleton(spec, result.resolved_chips.size());
  auto mc = std::make_shared<const McPlan>(plan_montecarlo(spec));
  const core::ModelSuite* effective = &suite;  // outlives the plan (engine-owned)
  plan.run_job = [mc, effective](core::LifecycleModel* /*model*/, std::size_t index,
                                 ScenarioResult& out) {
    evaluate_mc_sample(out.spec, *mc, *effective, out.resolved_chips, index,
                       *out.uncertainty);
  };
  plan.assemble = [](ScenarioResult& out) { reduce_montecarlo(*out.uncertainty); };
  return plan;
}

void result_to_json(const ScenarioResult& result, Json& out) {
  if (!result.uncertainty) {
    return;
  }
  const MonteCarloUq& uq = *result.uncertainty;
  Json mc = Json::object();
  mc["samples"] = uq.samples;
  mc["percentiles"] = doubles_to_json(uq.percentiles);
  Json totals = Json::array();
  for (const UqStat& stat : uq.platform_total) {
    Json entry = Json::object();
    entry["mean"] = stat.mean;
    entry["stddev"] = stat.stddev;
    entry["percentile_values"] = doubles_to_json(stat.percentile_values);
    totals.push_back(std::move(entry));
  }
  mc["platform_total"] = std::move(totals);
  Json ratios = Json::array();
  for (const UqStat& stat : uq.ratio) {
    Json entry = Json::object();
    entry["mean"] = stat.mean;
    entry["stddev"] = stat.stddev;
    entry["percentile_values"] = doubles_to_json(stat.percentile_values);
    ratios.push_back(std::move(entry));
  }
  mc["ratio"] = std::move(ratios);
  mc["win_fraction"] = doubles_to_json(uq.win_fraction);
  Json samples = Json::array();
  for (const std::vector<double>& platform : uq.sample_totals_kg) {
    samples.push_back(doubles_to_json(platform));
  }
  mc["sample_totals_kg"] = std::move(samples);
  out["uncertainty"] = std::move(mc);
}

void to_frames(const ScenarioResult& result, std::vector<report::ResultFrame>& frames) {
  frames.push_back(uncertainty_frame(result));
}

bool render_text(const ScenarioResult& result,
                 std::span<const report::ResultFrame> frames, std::ostream& out) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      out << "\n";
    }
    out << report::frame_to_table(frames[i]);
  }
  const MonteCarloUq& uq = *result.uncertainty;
  if (!uq.ratio.empty()) {
    std::vector<double> ratios = uq.ratio_samples(1);
    std::sort(ratios.begin(), ratios.end());
    out << report::render_cdf(ratios, result.platform_names[1] + ":" +
                                          result.platform_names[0] + " ratio");
  }
  return true;
}

bool sample_csv(const ScenarioSpec& /*spec*/) { return true; }

}  // namespace

const KindModule& montecarlo_module() {
  static const KindModule module{
      .kind = ScenarioKind::montecarlo,
      .name = "montecarlo",
      .aliases = kAliases,
      .summary = "uncertainty quantification: distribution-sampled inputs",
      .spec_keys = kSpecKeys,
      .seed_defaults = seed_defaults,
      .params_to_json = params_to_json,
      .parse_params = parse_params,
      .validate = validate,
      .execute = execute,
      .plan_jobs = plan_jobs,
      .result_to_json = result_to_json,
      .to_frames = to_frames,
      .render_text = render_text,
      .sample_csv = sample_csv,
  };
  return module;
}

}  // namespace greenfpga::scenario::kinds
