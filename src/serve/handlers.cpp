/// \file handlers.cpp
/// The serve endpoints: spec in, canonical result JSON out, the rendered
/// bytes cached by content key.

#include "serve/handlers.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config_io.hpp"
#include "device/catalog.hpp"
#include "io/hash.hpp"
#include "io/json.hpp"
#include "scenario/result_io.hpp"
#include "scenario/spec.hpp"

namespace greenfpga::serve {

namespace {

using io::Json;

/// Wrap a handler with the uniform error mapping: domain errors (bad
/// JSON, unknown keys, invalid specs) answer 400 with the same
/// offending-key-naming message the CLI prints; anything else is a 500.
/// Also maintains the context's request/error counters.
Router::Handler wrap(ServeContext& context, Router::Handler handler) {
  return [&context, handler = std::move(handler)](const HttpRequest& request) {
    context.requests.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    try {
      response = handler(request);
    } catch (const io::JsonError& error) {
      response = error_response(400, error.what());
    } catch (const core::ConfigError& error) {
      response = error_response(400, error.what());
    } catch (const std::invalid_argument& error) {
      response = error_response(400, error.what());
    } catch (const std::out_of_range& error) {
      response = error_response(400, error.what());
    } catch (const std::exception& error) {
      response = error_response(500, error.what());
    }
    if (response.status >= 400) {
      context.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return response;
  };
}

/// The canonical `/v1/run` body of `result`: its pretty canonical JSON
/// plus a newline, exactly what `greenfpga run --format json` prints.
std::shared_ptr<const std::string> render_body(const scenario::ScenarioResult& result) {
  std::string text;
  scenario::result_to_json(result).dump_to(text);
  text.push_back('\n');
  return std::make_shared<const std::string>(std::move(text));
}

/// The pretty JSON array of `elements` (rendered `/v1/run` bodies),
/// spliced from their bytes with no DOM: byte-identical to dumping a
/// `Json` array of the results plus a newline.  The pretty writer is
/// purely structural, so an element at depth 1 is its body without the
/// final newline, with every newline followed by two more spaces.
std::string splice_array(const std::vector<const std::string*>& elements) {
  if (elements.empty()) {
    return "[]\n";
  }
  std::size_t size = 3;
  for (const std::string* body : elements) {
    size += 4 + body->size() +
            2 * static_cast<std::size_t>(std::count(body->begin(), body->end(), '\n'));
  }
  std::string out;
  out.reserve(size);
  out.push_back('[');
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i != 0) {
      out.push_back(',');
    }
    out.append("\n  ");
    std::string_view element(*elements[i]);
    if (!element.empty() && element.back() == '\n') {
      element.remove_suffix(1);
    }
    std::size_t start = 0;
    for (std::size_t nl = element.find('\n'); nl != std::string_view::npos;
         start = nl + 1, nl = element.find('\n', start)) {
      out.append(element.substr(start, nl + 1 - start));
      out.append("  ");
    }
    out.append(element.substr(start));
  }
  out.append("\n]\n");
  return out;
}

HttpResponse body_response(std::string body) {
  HttpResponse response;
  response.status = 200;
  response.set_header("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse handle_run(ServeContext& context, const HttpRequest& request) {
  // The exact dialect of `greenfpga run <spec.json>` (// comments
  // allowed, so a spec file can be POSTed verbatim), with the parser's
  // nesting cap, so a depth bomb is a 400, never a crash.  The body
  // parses once, straight into the `Json` tree, with hash-while-parse:
  // the request's canonical digest comes out of the same pass when its
  // keys arrive sorted.  `spec_from_json` validates the spec.
  const io::ParsedJson parsed =
      io::parse_json_hashed(request.body, io::JsonParseOptions{.allow_comments = true});
  const scenario::ScenarioSpec spec = scenario::spec_from_json(parsed.value);
  const scenario::Engine& engine = context.engine();
  scenario::Engine::PreparedRun prepared = engine.prepare(spec);
  const scenario::Engine::ContentKey key = scenario::Engine::content_key(prepared);
  std::shared_ptr<const std::string> body = context.cache().lookup(key.bytes);
  const bool hit = body != nullptr;
  if (hit) {
    // Stream the cached bytes back: no evaluation, no dump.
    context.fast_path_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    body = render_body(engine.run(std::move(prepared)));
    context.cache().insert(key.bytes, body);
  }
  HttpResponse response = body_response(*body);
  response.set_header("X-Cache", hit ? "hit" : "miss");
  // The fingerprint was folded while the key was dumped; same text as
  // content_digest(key.bytes), no re-hash of the key bytes.
  response.set_header("X-Cache-Key", io::content_digest_of_hash(key.fingerprint));
  if (parsed.canonical_digest.has_value()) {
    response.set_header("X-Request-Digest",
                        io::content_digest_of_hash(*parsed.canonical_digest));
  }
  return response;
}

HttpResponse handle_batch(ServeContext& context, const HttpRequest& request) {
  // Same dialect as /v1/run, so spec files embed verbatim.
  const Json parsed =
      io::parse_json(request.body, io::JsonParseOptions{.allow_comments = true});
  core::check_known_keys(parsed, "batch request", {"name", "specs"});
  std::vector<scenario::ScenarioSpec> specs;
  const Json::Array& entries = parsed.at("specs").as_array();
  specs.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    try {
      specs.push_back(scenario::spec_from_json(entries[i]));
    } catch (const std::exception& error) {
      throw core::ConfigError("specs[" + std::to_string(i) + "]: " + error.what());
    }
  }
  // Prepare and key every spec before touching the cache, so a spec that
  // fails to resolve leaves the counters alone.
  const scenario::Engine& engine = context.engine();
  std::vector<scenario::Engine::PreparedRun> prepared;
  std::vector<std::string> keys;
  prepared.reserve(specs.size());
  keys.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    prepared.push_back(engine.prepare(spec));
    keys.push_back(scenario::Engine::content_key(prepared.back()).bytes);
  }
  // One lookup per distinct key; the misses run as one engine batch and
  // are each rendered and inserted once.
  std::unordered_map<std::string_view, std::size_t> distinct;  // key -> slot
  std::vector<std::size_t> slot_of(specs.size());
  std::vector<std::shared_ptr<const std::string>> bodies;  // per slot
  std::vector<std::size_t> miss_specs;
  std::vector<scenario::Engine::PreparedRun> misses;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [it, first] = distinct.try_emplace(keys[i], bodies.size());
    slot_of[i] = it->second;
    if (!first) {
      continue;
    }
    bodies.push_back(context.cache().lookup(keys[i]));
    if (bodies.back() == nullptr) {
      miss_specs.push_back(i);
      misses.push_back(std::move(prepared[i]));
    }
  }
  const std::vector<scenario::ScenarioResult> results =
      engine.run_batch(std::move(misses));
  for (std::size_t j = 0; j < miss_specs.size(); ++j) {
    const std::size_t i = miss_specs[j];
    bodies[slot_of[i]] = render_body(results[j]);
    context.cache().insert(keys[i], bodies[slot_of[i]]);
  }
  std::vector<const std::string*> elements;
  elements.reserve(specs.size());
  for (const std::size_t slot : slot_of) {
    elements.push_back(bodies[slot].get());
  }
  return body_response(splice_array(elements));
}

HttpResponse handle_platforms(const ServeContext& context, const HttpRequest&) {
  Json body = Json::object();
  Json platforms = Json::array();
  for (const std::string& name : context.registry().names()) {
    platforms.push_back(name);
  }
  body["platforms"] = std::move(platforms);
  Json domains = Json::array();
  for (const device::Domain domain : device::all_domains()) {
    domains.push_back(to_string(domain));
  }
  body["domains"] = std::move(domains);
  return json_response(200, body);
}

HttpResponse handle_stats(ServeContext& context, const HttpRequest&) {
  const scenario::ResultCacheStats stats = context.cache().stats();
  Json cache = Json::object();
  cache["hits"] = stats.hits;
  cache["misses"] = stats.misses;
  cache["evictions"] = stats.evictions;
  cache["disk_hits"] = stats.disk_hits;
  cache["size"] = stats.size;
  cache["capacity"] = stats.capacity;
  cache["shards"] = stats.shards;
  Json body = Json::object();
  body["cache"] = std::move(cache);
  body["requests"] = context.requests.load(std::memory_order_relaxed);
  body["errors"] = context.errors.load(std::memory_order_relaxed);
  body["fast_path_hits"] = context.fast_path_hits.load(std::memory_order_relaxed);
  body["threads"] = context.engine().threads();
  return json_response(200, body);
}

HttpResponse handle_healthz(const HttpRequest&) {
  Json body = Json::object();
  body["status"] = "ok";
  return json_response(200, body);
}

}  // namespace

ServeContext::ServeContext(scenario::EngineOptions engine_options,
                           std::size_t cache_capacity, std::size_t cache_shards,
                           const std::string& cache_dir)
    : store_(cache_dir.empty()
                 ? std::nullopt
                 : std::optional<scenario::CacheStore>(std::in_place, cache_dir)),
      cache_(cache_capacity, cache_shards),
      engine_(engine_options),
      registry_(engine_options.registry != nullptr
                    ? engine_options.registry
                    : &device::PlatformRegistry::builtins()) {
  if (store_.has_value()) {
    cache_.attach_store(&*store_);
  }
}

Router make_router(ServeContext& context) {
  Router router;
  router.add("POST", "/v1/run", wrap(context, [&context](const HttpRequest& request) {
               return handle_run(context, request);
             }));
  router.add("POST", "/v1/batch",
             wrap(context, [&context](const HttpRequest& request) {
               return handle_batch(context, request);
             }));
  router.add("GET", "/v1/platforms",
             wrap(context, [&context](const HttpRequest& request) {
               return handle_platforms(context, request);
             }));
  router.add("GET", "/v1/stats", wrap(context, [&context](const HttpRequest& request) {
               return handle_stats(context, request);
             }));
  router.add("GET", "/healthz", wrap(context, [](const HttpRequest& request) {
               return handle_healthz(request);
             }));
  return router;
}

}  // namespace greenfpga::serve
