// serve_cold and serve_warm_fleet: closed-loop load over 2 connections from
// this one process against an in-process Server.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "common/affinity.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "fleet/router.hpp"
#include "fleet/supervisor.hpp"
#include "layers.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace perfbench {

using am::service::RequestKind;

namespace {

constexpr unsigned kConnections = 2;
constexpr unsigned kFrontThreads = 2;
/// serve_cold rounds per second of --seconds (each round sends every cell).
constexpr double kColdRoundsPerSecond = 5.0;
/// Below the request count of a run, so the LRU evicts (the write side).
constexpr std::size_t kColdCacheCapacity = 256;
constexpr int kColdSetups = 41;
/// serve_warm_fleet key set: every cell under this many variants.
constexpr std::uint32_t kWarmVariants = 5;
constexpr double kWarmRequestsPerSecond = 8000.0;
constexpr int kWarmSetups = 5;
/// In-process cold replays of each simulate and run_guest key behind the
/// serve_warm_fleet rates.
constexpr int kWarmRateReplays = 16;
constexpr std::size_t kFleetWorkers = 2;
/// Replayed requests of a traced serve_warm_fleet run.
constexpr std::size_t kWarmReplay = 30000;

std::string kind_name(RequestKind k) { return am::service::to_string(k); }

std::unique_ptr<am::service::Server> start_server(
    am::service::RequestHandler& handler, std::string* error) {
  am::service::ServerConfig config;
  am::service::Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  config.listen.push_back(ep);
  config.service_threads = kFrontThreads;
  auto server = std::make_unique<am::service::Server>(handler, config);
  if (!server->start(error)) return nullptr;
  return server;
}

void stop_server(std::unique_ptr<am::service::Server>& server) {
  if (server == nullptr) return;
  am::service::Server::request_shutdown();
  server->wait();
  server.reset();
}

bool ping(const am::service::Endpoint& ep) {
  am::service::ServiceClient client;
  std::string error;
  if (!client.connect(ep, &error)) return false;
  const auto r = client.roundtrip("{\"kind\":\"ping\"}", &error);
  return r.has_value() && response_ok(*r);
}

/// Per-item samples of one key or cell across rounds.
struct ItemSamples {
  RequestKind kind = RequestKind::kPing;
  std::vector<double> latency_us;
  std::vector<double> instructions;
};

/// Every round sends each cell once, so the cells weigh as the requests do.
/// Each cell's latency is its median across rounds; req_p50 and req_p90
/// are the median and p90 over the cells, <kind>_p50 the median over the
/// kind's cells.
void latency_metrics(const std::vector<ItemSamples>& per_cell, Result& out) {
  std::vector<double> all;
  std::map<RequestKind, std::vector<double>> by_kind;
  for (const ItemSamples& s : per_cell) {
    if (s.latency_us.empty()) continue;
    all.push_back(median(s.latency_us));
    by_kind[s.kind].push_back(all.back());
  }
  out.metrics["req_p50_us"] = median(all);
  out.metrics["req_p90_us"] = quantile(all, 0.9);
  for (RequestKind k : kComputeKinds) {
    out.metrics[kind_name(k) + "_p50_us"] = median(by_kind[k]);
  }
}

/// sweep_points_per_s and guest_minstr_per_s from items that executed:
/// items divided by the sum of per-item medians.
void rate_metrics(const std::vector<ItemSamples>& items, Result& out) {
  double sim_us = 0.0;
  double sim_items = 0.0;
  double guest_us = 0.0;
  double guest_instr = 0.0;
  for (const ItemSamples& s : items) {
    if (s.latency_us.empty()) continue;
    if (s.kind == RequestKind::kSimulate) {
      sim_us += median(s.latency_us);
      sim_items += 1.0;
    } else if (s.kind == RequestKind::kRunGuest) {
      guest_us += median(s.latency_us);
      guest_instr += median(s.instructions);
    }
  }
  out.metrics["sweep_points_per_s"] = sim_us > 0 ? sim_items * 1e6 / sim_us : 0;
  // instructions per microsecond == million instructions per second
  out.metrics["guest_minstr_per_s"] = guest_us > 0 ? guest_instr / guest_us : 0;
}

/// Model throughput MAPE over served simulate responses.
double simulate_mape_pct(const std::vector<const std::string*>& lines,
                         const std::vector<const std::string*>& responses) {
  std::vector<double> predicted;
  std::vector<double> measured;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    const auto r = am::service::parse_request(*lines[i], &error);
    if (!r || r->kind != RequestKind::kSimulate) continue;
    predicted.push_back(predicted_tput(
        r->point.machine, am::service::simulate_workload(r->point)));
    measured.push_back(
        result_number(*responses[i], "throughput_ops_per_kcycle"));
  }
  return tput_mape_pct(predicted, measured);
}

/// Digest of one variant's responses in cell order.
std::string round_digest(const std::vector<std::string>& responses,
                         std::size_t first, std::size_t cells) {
  std::string all;
  for (std::size_t c = 0; c < cells; ++c) {
    all += responses[first + c];
    all += '\n';
  }
  return digest(all);
}

/// Records a client roundtrip as a span; the handler decorator's span of
/// the same line becomes its child, so the request's self time is the
/// transport share. Returns false when a traced line has no handler span.
bool trace_roundtrip(SpanLog& log, TimedHandler& timed, const ServeItem& item,
                     std::size_t req_id, double t0, double t1,
                     const std::string& handler_name) {
  const std::string kind = kind_name(item.kind);
  if (!TimedHandler::traced(item.line)) {
    log.add({"untraced." + kind, t0, t1, -1, req_id});
    return true;
  }
  const std::size_t parent = log.add({"request." + kind, t0, t1, -1, req_id});
  TimedHandler::Timing t;
  if (!timed.take(item.line, &t)) return false;
  const std::string name = !handler_name.empty() ? handler_name
                           : t.cache_hit         ? "handler.hit"
                                                 : "handler.miss." + kind;
  log.add({name, t.start_us, t.end_us, static_cast<std::int64_t>(parent),
           req_id});
  return true;
}

void request_counts(const std::vector<RequestKind>& kinds, Result& out) {
  for (RequestKind k : kComputeKinds) {
    out.metrics["requests." + kind_name(k)] = static_cast<double>(
        std::count(kinds.begin(), kinds.end(), k));
  }
}

void finish_trace(const Options& o, const SpanLog& log, const LayerStats& stats,
                  Result& out) {
  emit_layer_metrics(log, stats, out);
  out.metrics["trace.overhead_pct"] = trace_overhead_pct(log);
  if (!o.spans_path.empty() && !log.write(o.spans_path)) {
    out.fail("cannot write spans to " + o.spans_path);
  }
}

struct ColdPlan {
  std::vector<std::uint32_t> variants;  ///< one per round
  std::vector<ServeItem> items;         ///< round-major, cell order
  std::vector<std::size_t> order;       ///< send order (indices into items)
};

ColdPlan cold_plan(const Options& o) {
  ColdPlan p;
  const std::size_t rounds = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(o.seconds * kColdRoundsPerSecond)),
      2, kServeVariants);
  p.variants = variant_sequence(o.seed, kServeVariants, rounds);
  const std::size_t cells = serve_cell_count();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t c = 0; c < cells; ++c) {
      p.items.push_back(serve_item(c, p.variants[r]));
    }
    for (std::size_t c : permutation(mix(o.seed, r), cells)) {
      p.order.push_back(r * cells + c);
    }
  }
  return p;
}

struct WarmPlan {
  std::vector<std::uint32_t> variants;
  std::vector<ServeItem> keys;            ///< variant-major, cell order
  std::vector<std::size_t> warm_order;    ///< untimed warm-up pass
  std::vector<std::size_t> sequence;      ///< timed requests (key indices)
};

WarmPlan warm_plan(const Options& o) {
  WarmPlan p;
  p.variants = variant_sequence(o.seed, kServeVariants, kWarmVariants);
  for (std::uint32_t v : p.variants) {
    for (std::size_t c = 0; c < serve_cell_count(); ++c) {
      p.keys.push_back(serve_item(c, v));
    }
  }
  p.warm_order = permutation(mix(o.seed, 77), p.keys.size());
  // Every block of serve_cell_count() requests sends each cell once, so the
  // kind and cell mix is the same in every run; the variant of each request
  // is drawn Zipf(0.99) over a seeded popularity order of the cell's keys.
  const std::size_t cells = serve_cell_count();
  const am::ZipfSampler zipf(kWarmVariants, 0.99);
  std::vector<std::vector<std::size_t>> rank(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    rank[c] = permutation(mix(o.seed, 99 + c), kWarmVariants);
  }
  am::Xoshiro256 rng(mix(o.seed, 5));
  const auto blocks = static_cast<std::size_t>(std::max(
      20.0, std::round(o.seconds * kWarmRequestsPerSecond / cells)));
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t c : permutation(mix(o.seed, 1000 + b), cells)) {
      p.sequence.push_back(rank[c][zipf.sample(rng)] * cells + c);
    }
  }
  return p;
}

/// Prediction-cache hits and misses of one fleet worker.
std::pair<double, double> worker_cache(const am::service::Endpoint& ep) {
  am::service::ServiceClient client;
  std::string error;
  if (!client.connect(ep, &error)) return {0, 0};
  const auto r = client.roundtrip("{\"kind\":\"stats\"}", &error);
  if (!r) return {0, 0};
  const auto doc = am::JsonValue::parse(*r);
  const am::JsonValue* result = doc ? doc->find("result") : nullptr;
  const am::JsonValue* cache = result ? result->find("cache") : nullptr;
  if (cache == nullptr) return {0, 0};
  const am::JsonValue* hits = cache->find("hits");
  const am::JsonValue* misses = cache->find("misses");
  return {hits ? hits->as_number() : 0, misses ? misses->as_number() : 0};
}

}  // namespace

Result run_serve_cold(const Options& o) {
  Result out;
  out.golden = "serve";
  const std::size_t cells = serve_cell_count();
  ColdPlan plan;
  am::service::ServiceConfig core_config;
  core_config.cache_capacity = kColdCacheCapacity;
  std::unique_ptr<am::service::ServiceCore> core;
  std::unique_ptr<TimedHandler> timed;
  std::unique_ptr<RotatingHandler> rotating;
  std::unique_ptr<am::service::Server> server;
  std::vector<double> setup_s;
  std::string error;
  for (int s = 0; s < kColdSetups; ++s) {
    stop_server(server);
    rotating.reset();
    timed.reset();
    core.reset();
    const double t0 = now_us();
    // Generating the requests is most of a set-up; it rotates over the
    // cores like the requests do. The server's threads start unpinned.
    pin_next_cpu();
    plan = cold_plan(o);
    am::unpin_current_thread();
    core = std::make_unique<am::service::ServiceCore>(core_config);
    am::service::RequestHandler* handler = core.get();
    if (o.trace) {
      timed = std::make_unique<TimedHandler>(*core);
      handler = timed.get();
    }
    // Each request runs on the next core in turn (outside the handler
    // span), so every cell is computed on every core across the rounds.
    rotating = std::make_unique<RotatingHandler>(*handler);
    server = start_server(*rotating, &error);
    if (server == nullptr || !ping(server->bound_endpoints().front())) {
      out.fail("server start: " + error);
      return out;
    }
    setup_s.push_back((now_us() - t0) / 1e6);
  }

  const std::size_t n = plan.order.size();
  SpanLog log;
  std::vector<std::string> responses(n);
  std::vector<double> latency(n, 0.0);
  std::atomic<std::uint64_t> lost_spans{0};
  const std::uint64_t transport_failures = closed_loop(
      server->bound_endpoints().front(), n, kConnections,
      [&](std::size_t i) -> const std::string& {
        return plan.items[plan.order[i]].line;
      },
      [&](std::size_t i, std::string&& response, double t0, double t1) {
        const std::size_t item = plan.order[i];
        responses[item] = std::move(response);
        latency[item] = t1 - t0;
        if (timed && !trace_roundtrip(log, *timed, plan.items[item], item, t0, t1, "")) {
          lost_spans.fetch_add(1);
        }
      });
  const am::service::CacheCounters cache = core->cache().counters();
  stop_server(server);

  out.attempted = n;
  if (transport_failures > 0) out.fail("transport failures", transport_failures);
  if (lost_spans.load() > 0) out.fail("handler spans lost", lost_spans.load());
  // Every request is distinct, so any hit means a key collided.
  if (cache.hits > 0) out.fail("cache hits on distinct requests", cache.hits);
  std::vector<RequestKind> kinds;
  std::vector<ItemSamples> per_cell(cells);
  std::vector<const std::string*> lines;
  std::vector<const std::string*> served;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const ServeItem& item = plan.items[i];
    kinds.push_back(item.kind);
    if (!response_ok(responses[i])) {
      out.fail("not ok: " + item.line.substr(0, 80) + " -> " +
               responses[i].substr(0, 160));
      continue;
    }
    ItemSamples& s = per_cell[i % cells];
    s.kind = item.kind;
    s.latency_us.push_back(latency[i]);
    if (item.kind == RequestKind::kRunGuest) {
      s.instructions.push_back(result_number(responses[i], "instructions"));
    }
    lines.push_back(&item.line);
    served.push_back(&responses[i]);
  }
  for (std::size_t r = 0; r < plan.variants.size(); ++r) {
    out.digests[plan.variants[r]] = round_digest(responses, r * cells, cells);
  }
  latency_metrics(per_cell, out);
  rate_metrics(per_cell, out);
  out.metrics["model_tput_mape_pct"] = simulate_mape_pct(lines, served);
  out.metrics["setup_s"] = median(setup_s);

  if (o.trace) {
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    out.metrics["cache.hit_ratio"] = lookups > 0 ? cache.hits / lookups : 0.0;
    out.metrics["cache.evictions"] = static_cast<double>(cache.evictions);
    request_counts(kinds, out);
    // Replay the first half of the rounds through each layer's functions.
    am::service::ShardedLruCache replay_cache(kColdCacheCapacity);
    LayerStats stats;
    const std::size_t replay = cells * ((plan.variants.size() + 1) / 2);
    for (std::size_t i = 0; i < replay; ++i) {
      replay_miss(plan.items[i], response_result(responses[i]), i,
                  replay_cache, log, stats);
    }
    finish_trace(o, log, stats, out);
  }
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  return out;
}

Result run_serve_warm_fleet(const Options& o) {
  Result out;
  out.golden = "serve";
  const WarmPlan plan = warm_plan(o);
  const std::size_t cells = serve_cell_count();
  const std::size_t keys = plan.keys.size();

  std::unique_ptr<am::fleet::Supervisor> supervisor;
  std::unique_ptr<am::fleet::Router> router;
  std::unique_ptr<TimedHandler> timed;
  std::unique_ptr<am::service::Server> server;
  auto teardown = [&] {
    stop_server(server);
    timed.reset();
    router.reset();
    if (supervisor) supervisor->drain();
    supervisor.reset();
  };

  std::vector<double> setup_s;
  std::vector<std::string> warm(keys);
  std::string error;
  for (int s = 0; s < kWarmSetups; ++s) {
    teardown();
    const double t0 = now_us();
    am::fleet::FleetConfig fleet;
    fleet.workers = kFleetWorkers;
    fleet.worker_binary = o.worker_binary;
    fleet.runtime_dir = o.runtime_dir;
    fleet.worker_threads = 1;
    supervisor = std::make_unique<am::fleet::Supervisor>(fleet);
    if (!supervisor->start(&error) ||
        !supervisor->wait_all_up(fleet.start_grace_ms)) {
      out.fail("fleet start: " + error);
      teardown();
      return out;
    }
    router = std::make_unique<am::fleet::Router>(*supervisor,
                                                 am::fleet::RouterConfig{});
    am::service::RequestHandler* handler = router.get();
    if (o.trace) {
      timed = std::make_unique<TimedHandler>(*router);
      handler = timed.get();
    }
    server = start_server(*handler, &error);
    if (server == nullptr) {
      out.fail("front start: " + error);
      teardown();
      return out;
    }
    // Untimed warm-up: one connection touches every key once, so the
    // workers compute each key cold.
    am::service::ServiceClient client;
    if (!client.connect(server->bound_endpoints().front(), &error)) {
      out.fail("connect: " + error);
      teardown();
      return out;
    }
    for (std::size_t k : plan.warm_order) {
      std::optional<std::string> r = client.roundtrip(plan.keys[k].line, &error);
      ++out.attempted;
      if (!r || !response_ok(*r)) {
        out.fail("warm-up: " + plan.keys[k].line.substr(0, 80) + " -> " +
                 (r ? r->substr(0, 160) : error));
        continue;
      }
      if (s > 0 && *r != warm[k]) out.fail("warm-up responses differ across setups");
      warm[k] = std::move(*r);
    }
    setup_s.push_back((now_us() - t0) / 1e6);
  }

  double hits0 = 0;
  double lookups0 = 0;
  for (std::size_t w = 0; w < supervisor->worker_count(); ++w) {
    const auto [h, m] = worker_cache(supervisor->endpoint(w));
    hits0 += h;
    lookups0 += h + m;
  }
  const std::uint64_t forwarded0 = router->forwarded();
  SpanLog log;
  const std::size_t n = plan.sequence.size();
  std::vector<double> latency(n, 0.0);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> not_ok{0};
  std::atomic<std::uint64_t> lost_spans{0};
  const std::uint64_t transport_failures = closed_loop(
      server->bound_endpoints().front(), n, kConnections,
      [&](std::size_t i) -> const std::string& {
        return plan.keys[plan.sequence[i]].line;
      },
      [&](std::size_t i, std::string&& response, double t0, double t1) {
        const std::size_t k = plan.sequence[i];
        latency[i] = t1 - t0;
        if (!response_ok(response)) not_ok.fetch_add(1);
        if (response != warm[k]) mismatches.fetch_add(1);
        if (timed && !trace_roundtrip(log, *timed, plan.keys[k], i, t0, t1,
                                      "router.handle")) {
          lost_spans.fetch_add(1);
        }
      });
  double hits1 = 0;
  double lookups1 = 0;
  for (std::size_t w = 0; w < supervisor->worker_count(); ++w) {
    const auto [h, m] = worker_cache(supervisor->endpoint(w));
    hits1 += h;
    lookups1 += h + m;
  }
  // The stats probes themselves are not cache lookups, so the deltas
  // cover exactly the timed requests.
  out.metrics["router.forwarded"] =
      static_cast<double>(router->forwarded() - forwarded0);
  out.metrics["router.failovers"] = static_cast<double>(router->failovers());
  out.metrics["router.shed"] = static_cast<double>(router->shed());
  out.metrics["router.stale_serves"] = static_cast<double>(router->stale_serves());
  const std::uint64_t degraded =
      router->failovers() + router->shed() + router->stale_serves();
  teardown();

  out.attempted += n;
  if (transport_failures > 0) out.fail("transport failures", transport_failures);
  if (lost_spans.load() > 0) out.fail("handler spans lost", lost_spans.load());
  // The timed phase must be all worker hits on a fleet that never degraded:
  // a timed miss, a failover or a stale serve would put compute or a retry
  // into the hit-path timings.
  if (hits1 - hits0 != static_cast<double>(n) ||
      lookups1 - lookups0 != static_cast<double>(n)) {
    out.fail("timed phase not all cache hits: " + std::to_string(hits1 - hits0) +
             " hits, " + std::to_string(lookups1 - lookups0) + " lookups, " +
             std::to_string(n) + " requests");
  }
  if (degraded > 0) out.fail("fleet failovers, shed or stale serves", degraded);
  if (not_ok.load() > 0) out.fail("not ok responses", not_ok.load());
  if (mismatches.load() > 0) {
    out.fail("responses differ from the warm-up response of the same key",
             mismatches.load());
  }
  for (std::size_t v = 0; v < plan.variants.size(); ++v) {
    out.digests[plan.variants[v]] = round_digest(warm, v * cells, cells);
  }
  std::vector<RequestKind> kinds;
  std::vector<ItemSamples> per_cell(cells);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = plan.sequence[i];
    kinds.push_back(plan.keys[k].kind);
    per_cell[k % cells].kind = plan.keys[k].kind;
    per_cell[k % cells].latency_us.push_back(latency[i]);
  }
  latency_metrics(per_cell, out);
  // Rates never come from cache hits, and a fleet worker's thread stays on
  // whichever core it started on. So the simulate and run_guest keys are
  // computed again in-process with the cache off, each on the next core in
  // turn; their responses must match what the fleet served.
  std::vector<ItemSamples> cold_cells(cells);
  {
    am::service::ServiceConfig config;
    config.cache_capacity = 0;
    config.metrics = false;
    am::service::ServiceCore core(config);
    for (int rep = 0; rep < kWarmRateReplays; ++rep) {
      for (std::size_t k : permutation(mix(o.seed, 200 + rep), keys)) {
        const ServeItem& item = plan.keys[k];
        if (item.kind != RequestKind::kSimulate && item.kind != RequestKind::kRunGuest) {
          continue;
        }
        pin_next_cpu();
        const double t0 = now_us();
        const auto r = am::service::parse_request(item.line, &error);
        std::string response = r ? core.handle(*r).response : "parse error: " + error;
        const double t1 = now_us();
        if (!response.empty() && response.back() == '\n') response.pop_back();
        ++out.attempted;
        if (response != warm[k]) {
          out.fail("in-process response differs from the fleet's: " +
                   item.line.substr(0, 80));
          continue;
        }
        ItemSamples& samples = cold_cells[k % cells];
        samples.kind = item.kind;
        samples.latency_us.push_back(t1 - t0);
        if (item.kind == RequestKind::kRunGuest) {
          samples.instructions.push_back(result_number(response, "instructions"));
        }
      }
    }
    am::unpin_current_thread();
  }
  rate_metrics(cold_cells, out);
  std::vector<const std::string*> lines;
  std::vector<const std::string*> served;
  for (std::size_t k = 0; k < keys; ++k) {
    lines.push_back(&plan.keys[k].line);
    served.push_back(&warm[k]);
  }
  out.metrics["model_tput_mape_pct"] = simulate_mape_pct(lines, served);
  out.metrics["setup_s"] = median(setup_s);

  if (o.trace) {
    const double lookups = lookups1 - lookups0;
    out.metrics["cache.hit_ratio"] = lookups > 0 ? (hits1 - hits0) / lookups : 0;
    request_counts(kinds, out);
    // Replay on a warmed local ServiceCore and LRU: the hit path without
    // transport.
    am::service::ServiceCore core(am::service::ServiceConfig{});
    am::service::ShardedLruCache cache(am::service::ServiceConfig{}.cache_capacity);
    std::string perr;
    for (std::size_t k = 0; k < keys; ++k) {
      const auto r = am::service::parse_request(plan.keys[k].line, &perr);
      if (!r) continue;
      (void)core.handle(*r);
      cache.put(am::service::request_cache_key(*r), response_result(warm[k]));
    }
    for (std::size_t i = 0; i < std::min(n, kWarmReplay); ++i) {
      replay_hit(plan.keys[plan.sequence[i]].line, i, cache, core, log);
    }
    finish_trace(o, log, LayerStats{}, out);
  }
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  return out;
}

std::map<std::uint32_t, std::string> bless_serve(unsigned threads) {
  std::map<std::uint32_t, std::string> out;
  std::mutex mu;
  std::atomic<std::uint32_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      am::service::ServiceConfig config;
      config.cache_capacity = 0;
      config.metrics = false;
      am::service::ServiceCore core(config);
      for (std::uint32_t v = next++; v < kServeVariants; v = next++) {
        std::vector<std::string> responses;
        for (std::size_t c = 0; c < serve_cell_count(); ++c) {
          std::string error;
          const auto r = am::service::parse_request(serve_item(c, v).line, &error);
          std::string line = r ? core.handle(*r).response : "parse error: " + error;
          if (!line.empty() && line.back() == '\n') line.pop_back();
          responses.push_back(std::move(line));
        }
        const std::string d = round_digest(responses, 0, responses.size());
        std::lock_guard<std::mutex> lock(mu);
        out[v] = d;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

std::string serve_inputs_digest(const Options& o) {
  std::string all;
  if (o.workload == "serve_cold") {
    const ColdPlan p = cold_plan(o);
    for (std::size_t i : p.order) all += p.items[i].line + '\n';
  } else {
    const WarmPlan p = warm_plan(o);
    for (std::size_t k : p.warm_order) all += p.keys[k].line + '\n';
    for (std::size_t k : p.sequence) all += std::to_string(k) + '\n';
  }
  return digest(all);
}

}  // namespace perfbench
