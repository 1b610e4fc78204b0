/// \file layers.cpp
/// In-process drivers of the library's public entry points.

#include "layers.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "io/json_arena.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"
#include "serve/handlers.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using greenfpga::scenario::Engine;
using greenfpga::scenario::EngineOptions;
using greenfpga::scenario::ScenarioResult;
using greenfpga::scenario::ScenarioSpec;

/// The canonical response bytes of `result`, as /v1/run sends them.
void render(const ScenarioResult& result, std::string& text) {
  text.clear();
  greenfpga::scenario::result_to_json(result).dump_to(text);
  text.push_back('\n');
}

Digest digest_of(const std::string& text) { return Digest{text.size(), body_digest(text)}; }

/// Span helpers that do nothing without a trace.
int open_span(Trace* trace, std::uint64_t id, const std::string& name, int parent = -1) {
  return trace != nullptr ? trace->begin(id, name, parent) : -1;
}
void close_span(Trace* trace, int span, std::uint64_t bytes = 0) {
  if (trace != nullptr) {
    trace->end(span, bytes);
  }
}

}  // namespace

ScenarioSpec spec_of(const std::string& body) {
  const greenfpga::io::JsonDocument doc = greenfpga::io::parse_json_arena(
      body, greenfpga::io::JsonParseOptions{.allow_comments = true}, true);
  ScenarioSpec spec = greenfpga::scenario::spec_from_json(doc.to_json());
  spec.validate();
  return spec;
}

std::vector<Digest> reference_digests(const std::vector<std::string>& bodies, int workers,
                                      const std::vector<char>& needed) {
  std::vector<Digest> out(bodies.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  auto work = [&] {
    const Engine engine(EngineOptions{.threads = 1});
    std::string text;
    for (std::size_t i = next++; i < bodies.size(); i = next++) {
      if (!needed.empty() && needed[i] == 0) {
        continue;
      }
      try {
        render(engine.run(spec_of(bodies[i])), text);
        out[i] = digest_of(text);
      } catch (const std::exception& failure) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        error = failure.what() + std::string(" for body ") + bodies[i].substr(0, 400);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back(work);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (!error.empty()) {
    throw std::runtime_error("perfbench: reference run failed, " + error);
  }
  return out;
}

BatchLoop batch_loop(const std::vector<ScenarioSpec>& specs, const std::vector<Digest>& expected,
                     int threads, double seconds, Trace* trace, std::uint64_t id_base) {
  static const std::string kBatch = "batch";
  static const std::string kRunBatch = "engine.run_batch";
  static const std::string kToJson = "result_io.to_json";
  static const std::string kDump = "io.dump";
  const Engine engine(EngineOptions{.threads = threads});
  std::vector<std::string> texts(specs.size());
  BatchLoop loop;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t batch = id_base; batch < id_base + 3 || now_ns() - start < budget;
       ++batch) {
    const std::int64_t t0 = now_ns();
    const int root = open_span(trace, batch, kBatch);
    int span = open_span(trace, batch, kRunBatch, root);
    const std::vector<ScenarioResult> results = engine.run_batch(specs);
    close_span(trace, span);
    for (std::size_t i = 0; i < results.size(); ++i) {
      span = open_span(trace, batch, kToJson, root);
      const greenfpga::io::Json json = greenfpga::scenario::result_to_json(results[i]);
      close_span(trace, span);
      span = open_span(trace, batch, kDump, root);
      texts[i].clear();
      json.dump_to(texts[i]);
      texts[i].push_back('\n');
      close_span(trace, span, texts[i].size());
    }
    close_span(trace, root);
    loop.batch_s.push_back(seconds_between(t0, now_ns()));
    loop.specs += specs.size();
    for (std::size_t i = 0; i < texts.size(); ++i) {
      loop.mismatches += digest_of(texts[i]) == expected[i] ? 0 : 1;
    }
  }
  return loop;
}

CallerLoop caller_loop(const std::vector<ScenarioSpec>& specs, const std::vector<Digest>& expected,
                       int callers, double seconds) {
  CallerLoop loop;
  std::atomic<std::size_t> next{0};
  std::mutex merge_mutex;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  auto work = [&] {
    const Engine engine(EngineOptions{.threads = 1});
    std::string text;
    std::vector<double> latency_ms;
    std::size_t mismatches = 0;
    while (now_ns() - start < budget) {
      const std::size_t index = next++ % specs.size();
      const std::int64_t t0 = now_ns();
      render(engine.run(specs[index]), text);
      latency_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
      mismatches += digest_of(text) == expected[index] ? 0 : 1;
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    loop.latency_ms.insert(loop.latency_ms.end(), latency_ms.begin(), latency_ms.end());
    loop.mismatches += mismatches;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back(work);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  loop.wall_s = seconds_between(start, now_ns());
  return loop;
}

void replay_handle_run(const BodySet& set, const std::vector<std::uint32_t>& order,
                       greenfpga::scenario::ResultCache* cache, int threads, Trace& trace,
                       std::uint64_t id_base) {
  static const std::string kRequest = "request";
  static const std::string kParse = "io.parse";
  static const std::string kBuild = "spec.build";
  static const std::string kKey = "engine.key";
  static const std::string kLookup = "cache.lookup";
  static const std::string kToJson = "result_io.to_json";
  static const std::string kDump = "io.dump";
  static const std::string kInsert = "cache.insert";
  std::map<std::string, std::string> execute_names;
  for (const std::string& kind : set.kinds) {
    execute_names.emplace(kind, "engine.execute." + kind);
  }
  const Engine engine(EngineOptions{.threads = threads});
  std::string text;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint64_t id = id_base + i;
    const std::string& body = set.bodies[order[i]];
    const int root = trace.begin(id, kRequest);

    int span = trace.begin(id, kParse, root);
    const greenfpga::io::JsonDocument doc = greenfpga::io::parse_json_arena(
        body, greenfpga::io::JsonParseOptions{.allow_comments = true}, true);
    trace.end(span, body.size());

    span = trace.begin(id, kBuild, root);
    ScenarioSpec spec = greenfpga::scenario::spec_from_json(doc.to_json());
    spec.validate();
    trace.end(span);

    std::string key;
    std::shared_ptr<const ScenarioResult> hit;
    if (cache != nullptr) {
      span = trace.begin(id, kKey, root);
      key = engine.cache_key(spec);
      trace.end(span, key.size());
      span = trace.begin(id, kLookup, root);
      hit = cache->lookup(key);
      trace.end(span);
    }
    if (hit == nullptr) {
      span = trace.begin(id, execute_names.at(set.kinds[order[i]]), root);
      ScenarioResult result = engine.run(spec);
      trace.end(span);

      span = trace.begin(id, kToJson, root);
      const greenfpga::io::Json json = greenfpga::scenario::result_to_json(result);
      trace.end(span);

      span = trace.begin(id, kDump, root);
      text.clear();
      json.dump_to(text);
      text.push_back('\n');
      trace.end(span, text.size());

      if (cache != nullptr) {
        span = trace.begin(id, kInsert, root);
        cache->insert(key, std::make_shared<const ScenarioResult>(std::move(result)));
        trace.end(span);
      }
    }
    trace.end(root);
  }
}

void replay_route(const BodySet& set, const std::vector<std::uint32_t>& order,
                  const std::vector<std::string>& warm, std::size_t cache_capacity,
                  Trace& trace, std::uint64_t id_base) {
  static const std::string kRoute = "serve.route";
  greenfpga::serve::ServeContext context(
      EngineOptions{.threads = Engine::default_threads()}, cache_capacity);
  const greenfpga::serve::Router router = greenfpga::serve::make_router(context);
  greenfpga::serve::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/run";
  request.version = "HTTP/1.1";
  for (const std::string& body : warm) {
    request.body = body;
    (void)router.route(request);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    request.body = set.bodies[order[i]];
    const int span = trace.begin(id_base + i, kRoute);
    const greenfpga::serve::HttpResponse response = router.route(request);
    trace.end(span, response.body.size());
  }
}

BatchScaling batch_scaling(const std::vector<ScenarioSpec>& specs, int threads,
                           double seconds_each) {
  auto repeat_ms = [seconds_each](auto&& once) {
    std::vector<double> samples;
    const std::int64_t start = now_ns();
    while (samples.size() < 3 || seconds_between(start, now_ns()) < seconds_each) {
      const std::int64_t t0 = now_ns();
      once();
      samples.push_back(seconds_between(t0, now_ns()) * 1e3);
    }
    return median(samples);
  };
  auto batch_ms = [&](int workers) {
    const Engine engine(EngineOptions{.threads = workers});
    return repeat_ms([&] { (void)engine.run_batch(specs); });
  };
  BatchScaling scaling;
  scaling.batch_ms_1 = batch_ms(1);
  scaling.batch_ms_2 = batch_ms(2);
  scaling.batch_ms_n = batch_ms(threads);
  const Engine engine(EngineOptions{.threads = threads});
  scaling.sequential_ms_n = repeat_ms([&] {
    for (const ScenarioSpec& spec : specs) {
      (void)engine.run(spec);
    }
  });
  return scaling;
}

}  // namespace perfbench
