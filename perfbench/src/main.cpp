/// \file main.cpp
/// The repository benchmark program.
///
///   perfbench --workload serve_hot|serve_cold|explore --seed N --seconds S
///             --trace 0|1 --cli <greenfpga binary> --specs <dir>
///             --config <workloads.json> --out <dir>
///
/// Prints progress on stderr and, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.  With
/// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
/// the per-layer set, from a traced replay of the same seeded bodies.
/// Exits 1 when any response or output differs from the canonical bytes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bodies.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "io/json.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/result_io.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using greenfpga::io::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string specs;
  std::string config;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--specs") {
      args.specs = value;
    } else if (flag == "--config") {
      args.config = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.cli.empty() || args.specs.empty() ||
      args.config.empty() || args.out.empty() || args.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH "
        "--specs DIR --config FILE --out DIR");
  }
  return args;
}

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.emplace_back(name, std::make_pair(std::isfinite(value) ? value : 0.0, unit));
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", entries_[i].second.first);
      if (i > 0) {
        out += ", ";
      }
      out += "\"" + entries_[i].first + "\": {\"value\": " + value + ", \"unit\": \"" +
             entries_[i].second.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Attempts and failures of one run, across every phase.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(std::size_t attempts, std::size_t failures) {
    attempted += attempts;
    failed += failures;
  }
};

int nproc() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

/// How long an open loop waits for its last responses after the last
/// request was due.  A slow host makes late responses, not failures;
/// only a response still missing after this counts as failed.
constexpr double kDrainSeconds = 60.0;

/// A run is split into rounds of about this many seconds; each round
/// runs a slice of every phase.
constexpr double kRoundSeconds = 3.0;
/// Shares of a serve round: open loop, closed loop, in-process batches.
constexpr double kOpenShare = 0.6;
constexpr double kSatShare = 0.2;
constexpr double kBatchShare = 0.2;
/// Share of an explore round for each run_batch loop (the callers get
/// the rest).
constexpr double kExploreBatchShare = 0.3;
/// Latency percentiles are taken per window of this many requests, so
/// each window's p99 has ten samples beyond it.
constexpr std::size_t kLatencyWindow = 1000;
/// The daemon's default shard count (serve --cache-shards).
constexpr std::size_t kDaemonCacheShards = 8;
/// Set-up is timed this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 7;
/// Repeat time of each batch-scaling configuration in the traced run.
constexpr double kScalingSeconds = 0.5;

/// A round during which the hypervisor stole more than this share of
/// the VM's CPU time measures the host, not the program: it is re-run,
/// up to kExtraRounds more rounds per run.
constexpr double kMaxStealShare = 0.03;
constexpr int kExtraRounds = 3;

/// Closed-loop throughput is the median rate over windows this long.
constexpr double kRateWindowSeconds = 0.25;

/// Span ids of warm-pass requests start here, clear of request indices.
constexpr std::uint64_t kWarmIds = 1ULL << 40;

const char* const kKinds[] = {"compare",     "sweep",      "grid",     "timeline", "node_dse",
                              "breakeven",   "sensitivity", "montecarlo", "frontier", "fleet"};

/// A workload's bodies: the open-loop (or explore) set, the closed-loop
/// set and the warm-up bodies.  serve_hot reuses its open set for the
/// closed loop.
struct ServeBodies {
  BodySet open;
  BodySet sat;
  BodySet warm;
  std::size_t batch = 0;  ///< the first `batch` bodies of `open` form the in-process batch
};

ServeBodies serve_bodies(const Args& args, const Json& config, std::size_t requests) {
  const Mix mix = mix_from_json(config.at("mix"));
  ServeBodies bodies;
  if (args.workload == "serve_hot") {
    const auto generated = static_cast<std::size_t>(config.at("generated_specs").as_number());
    bodies.open = hot_set(load_examples(args.specs), mix, generated,
                          config.at("example_share").as_number(), args.seed, requests);
    bodies.sat = bodies.open;
    bodies.warm = bodies.open;
    bodies.warm.order.clear();
    for (std::uint32_t i = 0; i < bodies.open.bodies.size(); ++i) {
      bodies.warm.order.push_back(i);
    }
    bodies.batch = bodies.open.bodies.size();
  } else {
    bodies.open = generate(mix, args.seed, 100, requests, "cold");
    bodies.sat = generate(mix, args.seed, 200,
                          static_cast<std::size_t>(config.at("sat_specs").as_number()),
                          "cold sat");
    bodies.warm = generate(mix, args.seed, 300,
                           static_cast<std::size_t>(config.at("warm_specs").as_number()),
                           "cold warm");
    bodies.batch = std::min(static_cast<std::size_t>(config.at("batch_specs").as_number()),
                            bodies.open.bodies.size());
  }
  return bodies;
}

std::vector<std::string> wires_of(const BodySet& set) {
  std::vector<std::string> wires;
  wires.reserve(set.bodies.size());
  for (const std::string& body : set.bodies) {
    wires.push_back(run_request(body));
  }
  return wires;
}

/// Reference digests for every body of `set` that `reports` sent.
std::vector<Digest> references_for(const BodySet& set, const std::vector<const LoadReport*>& reports) {
  std::vector<char> needed(set.bodies.size(), 0);
  for (const LoadReport* report : reports) {
    for (const Outcome& outcome : report->outcomes) {
      needed[outcome.body] = 1;
    }
  }
  return reference_digests(set.bodies, nproc(), needed);
}

/// Outcomes that did not complete with 200 and the canonical bytes.
std::size_t failures(const LoadReport& report, const std::vector<Digest>& expected) {
  std::size_t failed = 0;
  for (const Outcome& outcome : report.outcomes) {
    const bool ok = outcome.done_ns != 0 && outcome.status == 200 &&
                    Digest{outcome.length, outcome.digest} == expected[outcome.body];
    failed += ok ? 0 : 1;
  }
  return failed;
}

/// The median over consecutive windows of `window` requests (in due
/// order) of each window's q-quantile latency, so one stalled second of
/// the host moves a window, not the run.  Incomplete requests are left
/// out here; they count as failures.  A run shorter than one window is
/// one window.
double windowed_quantile_ms(const LoadReport& report, double q, std::size_t window) {
  window = std::min(window, report.outcomes.size());
  std::vector<double> per_window;
  for (std::size_t first = 0; window > 0 && first + window <= report.outcomes.size();
       first += window) {
    std::vector<double> latency;
    for (std::size_t i = first; i < first + window; ++i) {
      const Outcome& outcome = report.outcomes[i];
      if (outcome.done_ns != 0) {
        latency.push_back(seconds_between(outcome.due_ns, outcome.done_ns) * 1e3);
      }
    }
    per_window.push_back(quantile(std::move(latency), q));
  }
  return median(std::move(per_window));
}

/// A closed loop's throughput: the median over kRateWindowSeconds
/// windows of its completion rate.
double closed_loop_rate(const LoadReport& report) {
  std::vector<double> counts(
      std::max<std::size_t>(static_cast<std::size_t>(report.window_s / kRateWindowSeconds), 1),
      0.0);
  for (const Outcome& outcome : report.outcomes) {
    const double done_s = seconds_between(report.outcomes.front().due_ns, outcome.done_ns);
    const auto slot = static_cast<std::size_t>(done_s / kRateWindowSeconds);
    if (outcome.done_ns != 0 && slot < counts.size()) {
      counts[slot] += 1.0;
    }
  }
  return median(std::move(counts)) / kRateWindowSeconds;
}

std::vector<greenfpga::scenario::ScenarioSpec> specs_of(const std::vector<std::string>& bodies) {
  std::vector<greenfpga::scenario::ScenarioSpec> specs;
  for (const std::string& body : bodies) {
    specs.push_back(spec_of(body));
  }
  return specs;
}

std::uint64_t stat_delta(const Json& before, const Json& after, const char* section,
                         const char* key) {
  const Json& b = section[0] == '\0' ? before : before.at(section);
  const Json& a = section[0] == '\0' ? after : after.at(section);
  return static_cast<std::uint64_t>(a.at(key).as_number() - b.at(key).as_number());
}

void warn_backlog(const LoadReport& report, const char* phase) {
  if (report.backlog_growing) {
    std::cerr << "perfbench: WARNING " << phase << ": backlog grew during the run (max "
              << report.backlog_max << "); the rate is above what this host sustains\n";
  }
}

/// Per-layer metrics taken from span totals (0 when a layer was not on
/// this workload's path).
void layer_metrics_from_trace(const Trace& trace, Metrics& metrics) {
  const std::map<std::string, Trace::Totals> totals = trace.totals();
  auto get = [&totals](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Trace::Totals{} : it->second;
  };
  const Trace::Totals parse = get("io.parse");
  const Trace::Totals dump = get("io.dump");
  const Trace::Totals key = get("engine.key");
  metrics.set("io.parse_us", parse.mean_us(), "us");
  metrics.set("io.parse_mbps", parse.mbps(), "MB/s");
  metrics.set("io.dump_us", dump.mean_us(), "us");
  metrics.set("io.dump_mbps", dump.mbps(), "MB/s");
  metrics.set("spec.build_us", get("spec.build").mean_us(), "us");
  metrics.set("engine.key_us", key.mean_us(), "us");
  metrics.set("engine.key_bytes",
              key.count == 0 ? 0.0 : static_cast<double>(key.bytes) / key.count, "bytes");
  metrics.set("cache.lookup_us", get("cache.lookup").mean_us(), "us");
  metrics.set("cache.insert_us", get("cache.insert").mean_us(), "us");
  for (const char* kind : kKinds) {
    metrics.set(std::string("engine.execute_us.") + kind,
                get(std::string("engine.execute.") + kind).mean_us(), "us");
  }
  metrics.set("result_io.to_json_us", get("result_io.to_json").mean_us(), "us");
}

void scaling_metrics(const BatchScaling& scaling, int threads, Metrics& metrics) {
  metrics.set("engine.batch_ms.t1", scaling.batch_ms_1, "ms");
  metrics.set("engine.batch_ms.t2", scaling.batch_ms_2, "ms");
  metrics.set("engine.batch_ms.nproc", scaling.batch_ms_n, "ms");
  metrics.set("engine.batch_vs_sequential", scaling.batch_ms_n / scaling.sequential_ms_n,
              "ratio");
  metrics.set("core.parallel_efficiency", scaling.batch_ms_1 / (threads * scaling.batch_ms_n),
              "ratio");
}

/// CPU time the hypervisor stole from this VM, and all CPU time, summed
/// over CPUs in clock ticks (the "cpu" line of /proc/stat; zeros where
/// there is none).
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes times;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  for (int field = 0; field < 8 && stat >> value; ++field) {
    times.total += value;
    times.steal = field == 7 ? value : times.steal;
  }
  return times;
}

/// Runs `round(r)` for r = 0, 1, ... until `wanted` rounds ran on a
/// quiet host -- the hypervisor stole at most kMaxStealShare of the VM's
/// CPU time during the round -- or `wanted + kExtraRounds` rounds ran.
/// Returns the `wanted` rounds with the least steal, in run order: the
/// ones to measure from.  Every round still counts for correctness.
template <typename Round>
std::vector<int> quiet_rounds(int wanted, const char* what, Round&& round) {
  std::vector<std::pair<double, int>> stolen;  // (steal share, round)
  int quiet = 0;
  for (int r = 0; r < wanted + kExtraRounds && quiet < wanted; ++r) {
    const CpuTimes before = read_cpu_times();
    round(r);
    const CpuTimes after = read_cpu_times();
    const std::uint64_t total = after.total - before.total;
    const double share =
        total == 0 ? 0.0 : static_cast<double>(after.steal - before.steal) / total;
    stolen.emplace_back(share, r);
    quiet += share <= kMaxStealShare ? 1 : 0;
  }
  std::sort(stolen.begin(), stolen.end());
  stolen.resize(std::min(stolen.size(), static_cast<std::size_t>(wanted)));
  std::vector<int> chosen;
  for (const auto& [share, r] : stolen) {
    chosen.push_back(r);
  }
  std::sort(chosen.begin(), chosen.end());
  if (quiet < wanted) {
    std::cerr << "perfbench: " << what << ": " << quiet << " of " << wanted + kExtraRounds
              << " rounds had at most " << kMaxStealShare * 100
              << " % CPU steal; measuring the " << chosen.size()
              << " with the least (worst " << stolen.back().first * 100 << " %)\n";
  }
  return chosen;
}

template <typename T>
std::vector<T> pick(const std::vector<T>& all, const std::vector<int>& which) {
  std::vector<T> out;
  for (const int i : which) {
    out.push_back(all[static_cast<std::size_t>(i)]);
  }
  return out;
}

BatchLoop merged(const std::vector<BatchLoop>& loops) {
  BatchLoop all;
  for (const BatchLoop& loop : loops) {
    all.specs += loop.specs;
    all.mismatches += loop.mismatches;
    all.batch_s.insert(all.batch_s.end(), loop.batch_s.begin(), loop.batch_s.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// serve_hot / serve_cold
// ---------------------------------------------------------------------------

/// One round of a serve run: a slice of every phase, so slow spells of
/// the host land on every metric alike rather than on whichever phase
/// ran then.
struct ServeRound {
  LoadReport sat;     ///< closed-loop slice
  LoadReport open;    ///< open-loop segment (untraced)
  LoadReport traced;  ///< the same segment again, traced
  BatchLoop parallel; ///< in-process run_batch at nproc threads
  BatchLoop serial;   ///< ... and at one thread
  std::uint64_t hits = 0;  ///< /v1/stats deltas over `open`
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fast_path_hits = 0;
};

LoadReport concat(const std::vector<LoadReport>& reports) {
  LoadReport all;
  for (const LoadReport& report : reports) {
    all.outcomes.insert(all.outcomes.end(), report.outcomes.begin(), report.outcomes.end());
    all.backlog_max = std::max(all.backlog_max, report.backlog_max);
    all.bytes_received += report.bytes_received;
  }
  return all;
}

void run_serve(const Args& args, const Json& config, Metrics& metrics, Tally& tally) {
  const double rate = config.at("rate_rps").as_number();
  const double slo_ms = config.at("slo_ms").as_number();
  const auto capacity = static_cast<std::size_t>(config.at("cache_capacity").as_number());
  const int connections = nproc();
  const int rounds = std::max(1, static_cast<int>(std::lround(args.seconds / kRoundSeconds)));
  const double round_s = args.seconds / rounds;
  const auto segment = static_cast<std::size_t>(std::ceil(rate * kOpenShare * round_s));
  if (segment * static_cast<std::size_t>(rounds) < kLatencyWindow) {
    std::cerr << "perfbench: WARNING fewer than " << kLatencyWindow
              << " requests; p99 has < 10 samples beyond it\n";
  }
  const ServeBodies bodies =
      serve_bodies(args, config, segment * static_cast<std::size_t>(rounds + kExtraRounds));
  const std::vector<std::string> open_wires = wires_of(bodies.open);
  const std::vector<std::string> sat_wires = wires_of(bodies.sat);
  const std::vector<std::string> daemon_args = {"--cache-capacity", std::to_string(capacity)};

  const std::vector<std::string> batch_bodies(
      bodies.open.bodies.begin(),
      bodies.open.bodies.begin() + static_cast<std::ptrdiff_t>(bodies.batch));
  const std::vector<greenfpga::scenario::ScenarioSpec> batch_specs = specs_of(batch_bodies);
  const std::vector<Digest> batch_expected = reference_digests(batch_bodies, nproc());

  // Set-up: spawn to healthy plus the warm pass, repeated; the last
  // daemon stays up for the measured phases.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const std::vector<int> quiet_setups =
      quiet_rounds(args.trace ? 1 : kSetupRepeats, "set-up", [&](int) {
        daemon.reset();
        const std::int64_t t0 = now_ns();
        daemon = std::make_unique<Daemon>(args.cli, daemon_args);
        wait_healthy(daemon->port());
        tally.add(bodies.warm.bodies.size(), warm_pass(daemon->port(), bodies.warm.bodies));
        setup_s.push_back(seconds_between(t0, now_ns()));
      });
  const int port = daemon->port();

  Trace trace;
  std::vector<ServeRound> all_rounds;
  std::size_t sat_cursor = 0;
  const std::vector<int> quiet = quiet_rounds(rounds, args.workload.c_str(), [&](int r) {
    ServeRound round;
    round.sat = closed_loop(port, connections, sat_wires, bodies.sat.order, kSatShare * round_s,
                            sat_cursor);
    const auto first = static_cast<std::size_t>(r) * segment;
    const std::vector<std::uint32_t> order(
        bodies.open.order.begin() + static_cast<std::ptrdiff_t>(first),
        bodies.open.order.begin() + static_cast<std::ptrdiff_t>(first + segment));
    const Json before = get_stats(port);
    round.open = open_loop(port, connections, open_wires, order, rate, kDrainSeconds);
    const Json after = get_stats(port);
    warn_backlog(round.open, "open loop");
    round.hits = stat_delta(before, after, "cache", "hits");
    round.misses = stat_delta(before, after, "cache", "misses");
    round.evictions = stat_delta(before, after, "cache", "evictions");
    round.fast_path_hits = stat_delta(before, after, "", "fast_path_hits");
    if (args.trace) {
      round.traced =
          open_loop(port, connections, open_wires, order, rate, kDrainSeconds, &trace, first);
    } else {
      const double batch_s = kBatchShare / 2 * round_s;
      round.parallel = batch_loop(batch_specs, batch_expected, nproc(), batch_s);
      round.serial = batch_loop(batch_specs, batch_expected, 1, batch_s);
    }
    all_rounds.push_back(std::move(round));
  });
  if (args.workload == "serve_cold" && sat_cursor > bodies.sat.order.size()) {
    std::cerr << "perfbench: WARNING closed loop reused bodies; raise sat_specs\n";
  }
  const double rss_mb = daemon->peak_rss_mb();
  daemon.reset();

  // Correctness: every response of every round against the canonical
  // bytes recomputed in-process, and every in-process batch likewise.
  std::vector<LoadReport> opens;
  std::vector<LoadReport> traceds;
  std::vector<LoadReport> sats;
  std::vector<BatchLoop> batches;
  ServeRound counters;
  for (const ServeRound& round : all_rounds) {
    opens.push_back(round.open);
    traceds.push_back(round.traced);
    sats.push_back(round.sat);
    batches.push_back(round.parallel);
    batches.push_back(round.serial);
    counters.hits += round.hits;
    counters.misses += round.misses;
    counters.evictions += round.evictions;
    counters.fast_path_hits += round.fast_path_hits;
  }
  const LoadReport every_open = concat(opens);
  const LoadReport every_traced = concat(traceds);
  const LoadReport every_sat = concat(sats);
  const std::vector<Digest> open_expected =
      references_for(bodies.open, {&every_open, &every_traced});
  tally.add(every_open.outcomes.size(), failures(every_open, open_expected));
  tally.add(every_traced.outcomes.size(), failures(every_traced, open_expected));
  const std::vector<Digest> sat_expected =
      args.workload == "serve_hot" ? open_expected : references_for(bodies.sat, {&every_sat});
  tally.add(every_sat.outcomes.size(), failures(every_sat, sat_expected));
  const BatchLoop every_batch = merged(batches);
  tally.add(every_batch.specs, every_batch.mismatches);

  // The workloads' claims about the cache, from the daemon's counters.
  const std::uint64_t runs = counters.hits + counters.misses;
  const double hit_ratio = runs == 0 ? 0.0 : static_cast<double>(counters.hits) / runs;
  const bool hot = args.workload == "serve_hot";
  if (hot ? hit_ratio < 0.99 : hit_ratio > 0.01 || counters.evictions == 0) {
    std::cerr << "perfbench: WARNING " << args.workload << " cache hit ratio " << hit_ratio
              << " with " << counters.evictions << " evictions is not what the workload claims\n";
  }

  // Metrics come from the quiet rounds.
  const LoadReport open = concat(pick(opens, quiet));
  std::vector<double> late_ms;
  for (const Outcome& outcome : open.outcomes) {
    late_ms.push_back(seconds_between(outcome.due_ns, outcome.sent_ns) * 1e3);
  }
  std::cerr << "perfbench: " << args.workload << " " << open.outcomes.size()
            << " measured open-loop requests at " << rate << "/s, backlog max "
            << open.backlog_max << ", late p99 " << quantile(late_ms, 0.99) << " ms\n";

  // Latency and saturation move with the host's CPU steal far more than
  // the bounds allow (see README.md), so they are per-layer metrics of
  // the traced run, measured on its untraced segments.
  std::vector<double> sat_rps;
  for (const LoadReport& slice : pick(sats, quiet)) {
    sat_rps.push_back(closed_loop_rate(slice));
  }
  const double p50_ms = windowed_quantile_ms(open, 0.50, kLatencyWindow);
  const double p99_ms = windowed_quantile_ms(open, 0.99, kLatencyWindow);
  std::cerr << "perfbench: " << args.workload << " latency p50 " << p50_ms << " ms, p99 "
            << p99_ms << " ms, saturation " << median(sat_rps) << " req/s\n";

  if (!args.trace) {
    std::size_t within_slo = 0;
    for (const Outcome& outcome : open.outcomes) {
      within_slo += outcome.done_ns != 0 && outcome.status == 200 &&
                            Digest{outcome.length, outcome.digest} == open_expected[outcome.body] &&
                            seconds_between(outcome.due_ns, outcome.done_ns) * 1e3 <= slo_ms
                        ? 1
                        : 0;
    }
    std::vector<BatchLoop> parallel;
    std::vector<BatchLoop> serial;
    for (const int r : quiet) {
      parallel.push_back(all_rounds[static_cast<std::size_t>(r)].parallel);
      serial.push_back(all_rounds[static_cast<std::size_t>(r)].serial);
    }
    metrics.set("setup_s", median(pick(setup_s, quiet_setups)), "s");
    metrics.set("slo_ok", static_cast<double>(within_slo) / open.outcomes.size(), "ratio");
    metrics.set("rss_mb", rss_mb, "MB");
    metrics.set("specs_per_s", merged(parallel).specs_per_s(), "1/s");
    metrics.set("specs_per_s_1t", merged(serial).specs_per_s(), "1/s");
    return;
  }

  // Traced run: the in-process replay of the same bodies through the
  // handle_run call order, then Router::route, then batch scaling.
  const LoadReport traced = concat(pick(traceds, quiet));
  greenfpga::scenario::ResultCache cache(capacity, kDaemonCacheShards);
  replay_handle_run(bodies.warm, bodies.warm.order, &cache, nproc(), trace, kWarmIds);
  const std::vector<std::uint32_t> sent(
      bodies.open.order.begin(),
      bodies.open.order.begin() + static_cast<std::ptrdiff_t>(all_rounds.size() * segment));
  replay_handle_run(bodies.open, sent, &cache, nproc(), trace, 0);
  const std::vector<std::uint32_t> route_order(
      sent.begin(),
      sent.begin() + static_cast<std::ptrdiff_t>(std::min(
                         sent.size(), static_cast<std::size_t>(
                                          config.at("route_requests").as_number()))));
  replay_route(bodies.open, route_order, bodies.warm.bodies, capacity, trace, 0);

  // serve.transport: HTTP round trip minus Router::route, per request.
  const std::vector<double> route_us = trace.totals()["serve.route"].self_us;
  std::vector<double> transport_us;
  for (std::size_t i = 0; i < route_us.size(); ++i) {
    const Outcome& outcome = every_traced.outcomes[i];
    if (outcome.done_ns != 0) {
      transport_us.push_back(seconds_between(outcome.sent_ns, outcome.done_ns) * 1e6 -
                             route_us[i]);
    }
  }
  const BatchScaling scaling = batch_scaling(batch_specs, nproc(), kScalingSeconds);
  const double traced_p50 = windowed_quantile_ms(traced, 0.5, kLatencyWindow);

  metrics.set("latency.p50_ms", p50_ms, "ms");
  metrics.set("latency.p99_ms", p99_ms, "ms");
  metrics.set("throughput.sat_rps", median(sat_rps), "1/s");
  metrics.set("serve.transport_us", median(transport_us), "us");
  metrics.set("serve.route_us", median(route_us), "us");
  metrics.set("serve.fast_path_ratio",
              runs == 0 ? 0.0 : static_cast<double>(counters.fast_path_hits) / runs, "ratio");
  metrics.set("serve.response_kb",
              static_cast<double>(every_open.bytes_received) /
                  static_cast<double>(every_open.outcomes.size()) / 1024.0,
              "KB");
  layer_metrics_from_trace(trace, metrics);
  metrics.set("cache.hits", static_cast<double>(counters.hits), "count");
  metrics.set("cache.misses", static_cast<double>(counters.misses), "count");
  metrics.set("cache.evictions", static_cast<double>(counters.evictions), "count");
  metrics.set("cache.hit_ratio", hit_ratio, "ratio");
  scaling_metrics(scaling, nproc(), metrics);
  metrics.set("gen.late_p99_ms", quantile(late_ms, 0.99), "ms");
  metrics.set("gen.backlog_max", static_cast<double>(open.backlog_max), "count");
  metrics.set("trace.overhead_pct", (traced_p50 - p50_ms) / p50_ms * 100.0, "%");
  std::filesystem::create_directories(args.out);
  trace.write(args.out + "/trace_" + args.workload + ".jsonl");
}

// ---------------------------------------------------------------------------
// explore
// ---------------------------------------------------------------------------

/// The explore callers' latency, throughput and SLO share.  Latency and
/// throughput move with the host's CPU steal (see README.md), so they are
/// per-layer metrics of the traced run; every run prints them on stderr.
struct CallerStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double sat_rps = 0.0;
  double slo_ok = 0.0;
};

CallerStats caller_stats(const std::vector<CallerLoop>& loops, double slo_ms) {
  std::vector<double> latency_ms;
  std::vector<double> rates;
  for (const CallerLoop& loop : loops) {
    latency_ms.insert(latency_ms.end(), loop.latency_ms.begin(), loop.latency_ms.end());
    rates.push_back(static_cast<double>(loop.latency_ms.size()) / loop.wall_s);
  }
  CallerStats stats;
  stats.p50_ms = quantile(latency_ms, 0.50);
  stats.p99_ms = quantile(latency_ms, 0.99);
  stats.sat_rps = median(rates);
  stats.slo_ok = static_cast<double>(std::count_if(latency_ms.begin(), latency_ms.end(),
                                                   [slo_ms](double ms) { return ms <= slo_ms; })) /
                 static_cast<double>(latency_ms.size());
  std::cerr << "perfbench: explore latency p50 " << stats.p50_ms << " ms, p99 " << stats.p99_ms
            << " ms over " << latency_ms.size() << " calls, " << stats.sat_rps << " calls/s\n";
  return stats;
}

void run_explore(const Args& args, const Json& config, Metrics& metrics, Tally& tally) {
  const Mix mix = mix_from_json(config.at("mix"));
  const auto manifest_specs = static_cast<std::size_t>(config.at("manifest_specs").as_number());
  const int threads = nproc();
  const int rounds = std::max(1, static_cast<int>(std::lround(args.seconds / kRoundSeconds)));
  const double round_s = args.seconds / rounds;

  // Set-up: manifest generation plus one warm-up batch, repeated.
  std::vector<double> setup_s;
  BodySet manifest;
  std::vector<greenfpga::scenario::ScenarioSpec> specs;
  const std::vector<int> quiet_setups =
      quiet_rounds(args.trace ? 1 : kSetupRepeats, "set-up", [&](int) {
        const std::int64_t t0 = now_ns();
        manifest = generate(mix, args.seed, 500, manifest_specs, "explore");
        specs = specs_of(manifest.bodies);
        const greenfpga::scenario::Engine engine(
            greenfpga::scenario::EngineOptions{.threads = threads});
        std::string text;
        for (const greenfpga::scenario::ScenarioResult& result : engine.run_batch(specs)) {
          text.clear();
          greenfpga::scenario::result_to_json(result).dump_to(text);
        }
        setup_s.push_back(seconds_between(t0, now_ns()));
      });
  const std::vector<Digest> expected = reference_digests(manifest.bodies, threads);

  const double slo_ms = config.at("slo_ms").as_number();
  auto count_callers = [&tally](const std::vector<CallerLoop>& loops) {
    for (const CallerLoop& loop : loops) {
      tally.add(loop.latency_ms.size(), loop.mismatches);
    }
  };

  if (!args.trace) {
    // Rounds of: run_batch at nproc threads, at one thread, and nproc
    // independent callers of Engine::run.
    std::vector<BatchLoop> parallel;
    std::vector<BatchLoop> serial;
    std::vector<CallerLoop> callers;
    const std::vector<int> quiet = quiet_rounds(rounds, "explore", [&](int) {
      parallel.push_back(batch_loop(specs, expected, threads, kExploreBatchShare * round_s));
      serial.push_back(batch_loop(specs, expected, 1, kExploreBatchShare * round_s));
      callers.push_back(
          caller_loop(specs, expected, threads, (1 - 2 * kExploreBatchShare) * round_s));
    });
    const BatchLoop every_batch = merged(parallel);
    const BatchLoop every_serial = merged(serial);
    tally.add(every_batch.specs + every_serial.specs,
              every_batch.mismatches + every_serial.mismatches);
    count_callers(callers);
    metrics.set("setup_s", median(pick(setup_s, quiet_setups)), "s");
    metrics.set("slo_ok", caller_stats(pick(callers, quiet), slo_ms).slo_ok, "ratio");
    metrics.set("rss_mb", peak_rss_mb("self"), "MB");
    metrics.set("specs_per_s", merged(pick(parallel, quiet)).specs_per_s(), "1/s");
    metrics.set("specs_per_s_1t", merged(pick(serial, quiet)).specs_per_s(), "1/s");
    return;
  }

  // Traced run: rounds of the nproc batch loop untraced and traced, a
  // per-spec replay at one thread for the per-kind execute times, and
  // the batch thread-scaling record.  No HTTP and no cache on this path.
  Trace trace;
  std::vector<BatchLoop> untraced;
  std::vector<BatchLoop> traced;
  std::uint64_t traced_batches = 0;
  std::vector<CallerLoop> callers;
  const std::vector<int> quiet = quiet_rounds(rounds, "explore", [&](int) {
    untraced.push_back(batch_loop(specs, expected, threads, round_s / 3));
    traced.push_back(batch_loop(specs, expected, threads, round_s / 3, &trace, traced_batches));
    traced_batches += traced.back().batch_s.size();
    callers.push_back(caller_loop(specs, expected, threads, round_s / 3));
  });
  count_callers(callers);
  const CallerStats stats = caller_stats(pick(callers, quiet), slo_ms);
  const BatchLoop every_untraced = merged(untraced);
  const BatchLoop every_traced = merged(traced);
  tally.add(every_untraced.specs + every_traced.specs,
            every_untraced.mismatches + every_traced.mismatches);
  std::vector<std::uint32_t> replay_order;
  for (int pass = 0; pass < 3; ++pass) {
    replay_order.insert(replay_order.end(), manifest.order.begin(), manifest.order.end());
  }
  replay_handle_run(manifest, replay_order, nullptr, 1, trace, kWarmIds);
  const BatchScaling scaling = batch_scaling(specs, threads, kScalingSeconds);
  const double untraced_rate = merged(pick(untraced, quiet)).specs_per_s();
  const double traced_rate = merged(pick(traced, quiet)).specs_per_s();

  metrics.set("latency.p50_ms", stats.p50_ms, "ms");
  metrics.set("latency.p99_ms", stats.p99_ms, "ms");
  metrics.set("throughput.sat_rps", stats.sat_rps, "1/s");
  metrics.set("serve.transport_us", 0.0, "us");
  metrics.set("serve.route_us", 0.0, "us");
  metrics.set("serve.fast_path_ratio", 0.0, "ratio");
  metrics.set("serve.response_kb", 0.0, "KB");
  layer_metrics_from_trace(trace, metrics);
  metrics.set("cache.hits", 0.0, "count");
  metrics.set("cache.misses", 0.0, "count");
  metrics.set("cache.evictions", 0.0, "count");
  metrics.set("cache.hit_ratio", 0.0, "ratio");
  scaling_metrics(scaling, threads, metrics);
  metrics.set("gen.late_p99_ms", 0.0, "ms");
  metrics.set("gen.backlog_max", 0.0, "count");
  metrics.set("trace.overhead_pct", (untraced_rate - traced_rate) / untraced_rate * 100.0, "%");
  std::filesystem::create_directories(args.out);
  trace.write(args.out + "/trace_" + args.workload + ".jsonl");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    std::ifstream config_file(args.config);
    std::stringstream config_text;
    config_text << config_file.rdbuf();
    const Json config = greenfpga::io::parse_json(
        config_text.str(), greenfpga::io::JsonParseOptions{.allow_comments = true});
    if (!config.contains(args.workload)) {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    const Json& workload = config.at(args.workload);
    Metrics metrics;
    Tally tally;
    if (args.workload == "explore") {
      run_explore(args, workload, metrics, tally);
    } else {
      run_serve(args, workload, metrics, tally);
    }
    if (args.trace) {
      metrics.set("error_rate",
                  static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
                  "ratio");
    }
    const bool correct = tally.failed == 0 && tally.attempted > 0;
    if (!correct) {
      std::cerr << "perfbench: " << tally.failed << " of " << tally.attempted
                << " responses or outputs differ from the canonical bytes\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
