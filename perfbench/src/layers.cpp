#include "layers.hpp"

#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "guest/decode.hpp"
#include "guest/elf.hpp"
#include "model/advisor.hpp"
#include "model/bouncing_model.hpp"
#include "model/calibrate.hpp"
#include "model/handoff.hpp"
#include "service/handlers.hpp"
#include "sim/config.hpp"

namespace perfbench {

using am::service::RequestKind;

namespace {

/// Times @p fn as a span named @p name.
template <typename Fn>
void timed(SpanLog& log, const char* name, std::uint64_t req_id, Fn&& fn) {
  const double t0 = now_us();
  fn();
  log.add({name, t0, now_us(), -1, req_id});
}

void replay_model(const am::service::Request& r, std::uint64_t req_id,
                  SpanLog& log) {
  const std::string& machine = r.kind == RequestKind::kAdvise
                                   ? r.advise.machine
                                   : r.point.machine;
  const std::uint32_t threads = r.kind == RequestKind::kAdvise
                                    ? r.advise.threads
                                    : r.point.threads;
  {
    const am::model::ModelParams p = params_of(machine);
    timed(log, "model.handoff", req_id, [&] {
      (void)am::model::estimate_handoff(
          p, threads, p.local_op_cycles(am::Primitive::kFaa));
    });
  }
  if (r.kind == RequestKind::kPredict) {
    const am::service::PointQuery& q = r.point;
    timed(log, "model.predict", req_id, [&] {
      const am::model::BouncingModel model(params_of(q.machine));
      (void)predict_with(model, am::service::simulate_workload(q));
    });
    return;
  }
  const am::service::AdviseQuery& q = r.advise;
  timed(log, "model.advise", req_id, [&] {
    const am::model::BouncingModel model(params_of(q.machine));
    if (q.target == "lock") {
      (void)am::model::advise_lock(model, q.threads, q.critical, q.outside);
    } else if (q.target == "backoff") {
      (void)am::model::recommended_backoff_cycles(model, q.threads);
    } else {
      (void)am::model::advise_counter(model, q.threads, q.work);
    }
  });
}

void replay_calibrate(const am::service::CalibrateQuery& q,
                      std::uint64_t req_id, SpanLog& log) {
  timed(log, "model.calibrate", req_id, [&] { (void)calibrate_from(q); });
}

void replay_simulate(const am::service::PointQuery& q, std::uint64_t req_id,
                     SpanLog& log, LayerStats& stats) {
  const am::sim::MachineConfig mc = am::sim::preset_by_name(q.machine);
  double run_us = 0.0;
  am::bench::SweepOptions opts;
  opts.jobs = 1;
  opts.base_seed = q.seed;
  am::bench::SweepEngine engine(
      [&](std::uint64_t seed) {
        return std::make_unique<TimedBackend>(
            std::make_unique<am::bench::SimBackend>(
                mc, am::bench::SimBackendOptions{}, seed),
            &run_us);
      },
      opts);
  const double t0 = now_us();
  const std::size_t index = engine.submit(am::service::simulate_workload(q));
  engine.drain();
  const double t1 = now_us();
  am::bench::clear_run_log();
  const std::size_t parent = log.add({"sweep.engine", t0, t1, -1, req_id});
  log.add({"sim.run", t0, t0 + run_us, static_cast<std::int64_t>(parent),
           req_id});
  if (const am::bench::MeasuredRun* run = engine.result_or_null(index)) {
    stats.add_sim(*run, run_us);
  }
}

void replay_guest(const am::service::GuestQuery& q, const std::string& kernel,
                  std::uint64_t req_id, SpanLog& log, LayerStats& stats) {
  replay_guest_load(q.elf, q.harts, req_id, log);
  // The same limits the run_guest handler applies.
  am::guest::GuestRunConfig config;
  config.backend = "sim:" + q.machine + ":" + q.memory_model;
  config.harts = q.harts;
  config.seed = q.seed;
  config.max_cycles = am::service::ServiceConfig{}.guest_max_cycles;
  config.guest.max_instructions =
      am::service::ServiceConfig{}.guest_max_instructions;
  config.guest.max_stdout_bytes = 4096;
  const double t0 = now_us();
  const am::guest::GuestRunResult result =
      am::guest::run_guest(q.elf.data(), q.elf.size(), config);
  const double t1 = now_us();
  log.add({"guest.run", t0, t1, -1, req_id});
  stats.add_guest(kernel, result, t1 - t0);
}

}  // namespace

am::model::Calibration calibrate_from(const am::service::CalibrateQuery& q) {
  SampleBackend backend(q);
  am::model::CalibrationOptions options;
  for (const am::service::CalibrateSample& s : q.samples) {
    if (s.mode == "shared" && s.threads >= 2) options.sweep_threads.push_back(s.threads);
  }
  am::model::Calibration cal =
      am::model::calibrate(backend, params_of(q.machine), options);
  // The backend's probe runs went to the process-wide run log; nothing reads it.
  am::bench::clear_run_log();
  return cal;
}

void LayerStats::add_sim(const am::bench::MeasuredRun& run, double run_us) {
  std::uint64_t transfers = 0;
  for (std::uint64_t t : run.transfers) transfers += t;
  const std::uint64_t attempts = run.total_attempts();
  if (transfers > 0) sim_ns_per_transfer.push_back(run_us * 1e3 / transfers);
  if (attempts > 0) sim_ns_per_op.push_back(run_us * 1e3 / attempts);
  sim_transfers += transfers;
  sim_ops += run.total_ops();
  sim_cycles += static_cast<std::uint64_t>(run.duration_cycles);
}

void LayerStats::add_guest(const std::string& kernel,
                           const am::guest::GuestRunResult& result,
                           double run_us) {
  const bool spin = kernel == "spinlock" || kernel == "ticket_lock";
  if (spin && result.total_instructions > 0) {
    guest_ns_per_instr.push_back(run_us * 1e3 / result.total_instructions);
  }
  if (!spin && result.total_atomics > 0) {
    guest_ns_per_atomic.push_back(run_us * 1e3 / result.total_atomics);
  }
  guest_instructions += result.total_instructions;
  guest_atomics += result.total_atomics;
}

void replay_guest_load(const std::vector<std::uint8_t>& elf,
                       std::uint32_t harts, std::uint64_t req_id,
                       SpanLog& log) {
  timed(log, "guest.load", req_id, [&] {
    am::guest::GuestImage image;
    const std::uint64_t stacks =
        static_cast<std::uint64_t>(am::guest::GuestConfig{}.stack_bytes) *
        harts;
    if (am::guest::load_elf32(elf.data(), elf.size(), am::guest::GuestLimits{},
                              static_cast<std::uint32_t>(stacks), &image)
            .ok()) {
      (void)am::guest::decode_stream(image.mem, image.text_base,
                                     image.text_end);
    }
  });
}

void replay_miss(const ServeItem& item, const std::string& result_json,
                 std::uint64_t req_id, am::service::ShardedLruCache& cache,
                 SpanLog& log, LayerStats& stats) {
  const std::string& line = item.line;
  std::optional<am::service::Request> r;
  std::string error;
  const double t0 = now_us();
  r = am::service::parse_request(line, &error);
  const double t1 = now_us();
  if (!r) return;
  log.add({r->kind == RequestKind::kRunGuest ? "protocol.parse_run_guest"
                                             : "protocol.parse",
           t0, t1, -1, req_id});
  std::string key;
  timed(log, "protocol.cache_key", req_id,
        [&] { key = am::service::request_cache_key(*r); });
  timed(log, "cache.get", req_id, [&] { (void)cache.get(key); });
  switch (r->kind) {
    case RequestKind::kPredict:
    case RequestKind::kAdvise: replay_model(*r, req_id, log); break;
    case RequestKind::kCalibrate:
      replay_calibrate(r->calibrate, req_id, log);
      break;
    case RequestKind::kSimulate:
      replay_simulate(r->point, req_id, log, stats);
      break;
    case RequestKind::kRunGuest:
      replay_guest(r->guest, item.kernel, req_id, log, stats);
      break;
    default: break;
  }
  timed(log, "cache.put", req_id, [&] { cache.put(key, result_json); });
  timed(log, "protocol.render", req_id,
        [&] { (void)am::service::make_result_response(*r, result_json); });
}

void replay_hit(const std::string& line, std::uint64_t req_id,
                am::service::ShardedLruCache& cache,
                am::service::ServiceCore& core, SpanLog& log) {
  std::optional<am::service::Request> r;
  std::string error;
  const double t0 = now_us();
  r = am::service::parse_request(line, &error);
  const double t1 = now_us();
  if (!r) return;
  log.add({r->kind == RequestKind::kRunGuest ? "protocol.parse_run_guest"
                                             : "protocol.parse",
           t0, t1, -1, req_id});
  std::string key;
  timed(log, "protocol.cache_key", req_id,
        [&] { key = am::service::request_cache_key(*r); });
  std::optional<std::string> cached;
  timed(log, "cache.get", req_id, [&] { cached = cache.get(key); });
  if (cached) {
    timed(log, "protocol.render", req_id,
          [&] { (void)am::service::make_result_response(*r, *cached); });
  }
  timed(log, "handler.hit", req_id, [&] { (void)core.handle(*r); });
}

void emit_layer_metrics(const SpanLog& log, const LayerStats& stats,
                        Result& out) {
  auto p50 = [&](const std::string& metric, std::vector<double> v,
                 double scale = 1.0) {
    if (!v.empty()) out.metrics[metric] = median(std::move(v)) * scale;
  };
  for (const char* name :
       {"protocol.parse", "protocol.parse_run_guest", "protocol.cache_key",
        "protocol.render", "cache.get", "cache.put", "handler.hit",
        "router.handle", "model.handoff", "model.predict", "model.advise",
        "model.calibrate", "guest.load", "guest.run"}) {
    p50(std::string(name) + "_p50_us", log.durations(name));
  }
  std::vector<double> transport;
  for (RequestKind k : kComputeKinds) {
    const std::string kind = am::service::to_string(k);
    p50("handler.miss_p50_us." + kind, log.durations("handler.miss." + kind));
    for (double t : log.self_times("request." + kind)) transport.push_back(t);
  }
  p50("server.transport_p50_us", transport);
  p50("sweep.engine_overhead_p50_us", log.self_times("sweep.engine"));
  p50("sweep.point_p50_ms", log.durations("sim.run"), 1e-3);
  p50("sim.host_ns_per_transfer", stats.sim_ns_per_transfer);
  p50("sim.host_ns_per_op", stats.sim_ns_per_op);
  p50("guest.host_ns_per_instr", stats.guest_ns_per_instr);
  p50("guest.host_ns_per_atomic", stats.guest_ns_per_atomic);
  out.metrics["sim.transfers_total"] = static_cast<double>(stats.sim_transfers);
  out.metrics["sim.ops_total"] = static_cast<double>(stats.sim_ops);
  out.metrics["sim.cycles_total"] = static_cast<double>(stats.sim_cycles);
  out.metrics["guest.instructions_total"] =
      static_cast<double>(stats.guest_instructions);
  out.metrics["guest.atomics_total"] = static_cast<double>(stats.guest_atomics);
}

double trace_overhead_pct(const SpanLog& log) {
  std::vector<double> ratios;
  for (RequestKind k : kComputeKinds) {
    const std::string kind = am::service::to_string(k);
    const std::vector<double> traced = log.durations("request." + kind);
    const std::vector<double> plain = log.durations("untraced." + kind);
    if (traced.empty() || plain.empty()) continue;
    ratios.push_back(median(traced) / median(plain));
  }
  return ratios.empty() ? 0.0 : (median(ratios) - 1.0) * 100.0;
}

}  // namespace perfbench
