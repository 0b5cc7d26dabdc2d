// batch_sim: offline, no service. K interleaved rounds of a SweepEngine grid
// on both presets, the guest corpus, and the model at every grid point; each
// item is timed on its own and reduced with per-item medians.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "common/affinity.hpp"
#include "guest/corpus.hpp"
#include "layers.hpp"
#include "model/advisor.hpp"
#include "model/bouncing_model.hpp"
#include "model/calibrate.hpp"
#include "model/handoff.hpp"
#include "model/validate.hpp"
#include "sim/config.hpp"

namespace perfbench {

namespace {

/// batch_sim rounds per second of --seconds.
constexpr double kBatchRoundsPerSecond = 0.8;
constexpr std::size_t kMaxRounds = 64;
/// A set-up generates the inputs, assembles the corpus and runs one
/// untimed warm-up round (first-touch page faults, lazy statics).
constexpr int kBatchSetups = 3;

using Elfs = std::map<std::string, std::vector<std::uint8_t>>;

Elfs build_corpus() {
  Elfs elfs;
  for (const std::string& name : am::guest::corpus::names()) {
    elfs[name] = am::guest::corpus::build(name);
  }
  return elfs;
}

/// Runs @p grid through one SweepEngine (jobs=1, no disk cache) in the order
/// @p order. Each point runs on a SimBackend of its own preset and seed
/// behind a TimedBackend, so the result of a point does not depend on its
/// position. Fills @p point_us per grid index; returns runs per grid index
/// (nullopt for a failed point).
std::vector<std::optional<am::bench::MeasuredRun>> run_grid(
    const std::vector<GridPoint>& grid, const std::vector<std::size_t>& order,
    std::vector<double>* point_us, double* engine_us) {
  point_us->assign(grid.size(), 0.0);
  am::bench::SweepOptions opts;
  opts.jobs = 1;
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < order.size(); ++i) {
    slot_of[am::bench::sweep_point_seed(opts.base_seed, i)] = order[i];
  }
  am::bench::SweepEngine engine(
      [&](std::uint64_t seed) {
        const std::size_t slot = slot_of.at(seed);
        const GridPoint& p = grid[slot];
        return std::make_unique<TimedBackend>(
            std::make_unique<am::bench::SimBackend>(
                am::sim::preset_by_name(p.machine),
                am::bench::SimBackendOptions{}, p.backend_seed),
            &(*point_us)[slot]);
      },
      opts);
  const double t0 = now_us();
  for (std::size_t slot : order) engine.submit(grid[slot].workload);
  engine.drain();
  *engine_us = now_us() - t0;
  am::bench::clear_run_log();
  std::vector<std::optional<am::bench::MeasuredRun>> runs(grid.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (const am::bench::MeasuredRun* r = engine.result_or_null(i)) {
      runs[order[i]] = *r;
    }
  }
  return runs;
}

std::vector<double> grid_predictions(const std::vector<GridPoint>& grid) {
  std::vector<double> out;
  for (const GridPoint& p : grid) out.push_back(predicted_tput(p.machine, p.workload));
  return out;
}

am::guest::GuestRunConfig guest_config(const GuestItem& g) {
  am::guest::GuestRunConfig config;
  config.backend = "sim:" + g.machine + ":" + g.memory_model;
  config.harts = g.harts;
  config.seed = g.seed;
  return config;
}

/// The digest record of guest run @p i: error code, per-hart exit codes and
/// instruction counts, totals and completion time.
std::string guest_record(std::size_t i, const am::guest::GuestRunResult& res) {
  std::string out = "g" + std::to_string(i) + " " + res.error.code;
  for (const am::guest::HartReport& h : res.hart_reports) {
    out += " " + std::to_string(h.exit_code) + ":" + std::to_string(h.instructions);
  }
  return out + " " + std::to_string(res.total_instructions) + " " +
         std::to_string(res.total_atomics) + " " +
         std::to_string(res.completion_cycles) + "\n";
}

/// Per-item host times of one round, and the round's output digest.
struct Round {
  std::vector<double> point_us;
  double engine_us = 0.0;
  std::vector<double> guest_us;
  std::vector<double> predict_us;
  std::vector<double> advise_us;
  std::vector<double> calibrate_us;
  std::string digest;
};

Round run_round(const BatchInputs& in, const Elfs& elfs, std::uint64_t seed,
                bool trace, SpanLog& log, LayerStats* stats,
                std::vector<double>* measured_tput, Result& out) {
  Round r;
  std::string record;
  const std::vector<std::optional<am::bench::MeasuredRun>> runs =
      run_grid(in.grid, permutation(mix(seed, 1), in.grid.size()), &r.point_us,
               &r.engine_us);
  if (trace) {
    const double t0 = now_us();
    const std::size_t parent = log.add({"sweep.engine", t0, t0 + r.engine_us});
    for (std::size_t i = 0; i < in.grid.size(); ++i) {
      log.add({"sim.run", t0, t0 + r.point_us[i],
               static_cast<std::int64_t>(parent), i});
    }
  }
  for (std::size_t i = 0; i < in.grid.size(); ++i) {
    ++out.attempted;
    if (!runs[i]) {
      out.fail("sweep point " + in.grid[i].workload.describe() + " failed");
      record += "p" + std::to_string(i) + " failed\n";
      continue;
    }
    record += am::bench::serialize_measured_run(*runs[i], "p" + std::to_string(i));
    if (measured_tput) measured_tput->push_back(runs[i]->throughput_ops_per_kcycle());
    if (stats) stats->add_sim(*runs[i], r.point_us[i]);
  }

  r.guest_us.assign(in.guests.size(), 0.0);
  std::vector<std::string> guest_records(in.guests.size());
  for (std::size_t i : permutation(mix(seed, 2), in.guests.size())) {
    const GuestItem& g = in.guests[i];
    const std::vector<std::uint8_t>& elf = elfs.at(g.kernel);
    if (trace) replay_guest_load(elf, g.harts, i, log);
    pin_next_cpu();
    const double t0 = now_us();
    const am::guest::GuestRunResult res =
        am::guest::run_guest(elf.data(), elf.size(), guest_config(g));
    r.guest_us[i] = now_us() - t0;
    ++out.attempted;
    bool exited = res.error.ok();
    for (const am::guest::HartReport& h : res.hart_reports) {
      exited = exited && h.exited && h.exit_code == 0;
    }
    if (!exited) out.fail("guest " + g.kernel + " failed: " + res.error.code);
    if (trace) log.add({"guest.run", t0, t0 + r.guest_us[i], -1, i});
    if (stats) stats->add_guest(g.kernel, res, r.guest_us[i]);
    guest_records[i] = guest_record(i, res);
  }
  for (const std::string& g : guest_records) record += g;

  // The model at every grid point, as the predict and advise kinds run it:
  // a fresh model per evaluation.
  r.predict_us.assign(in.grid.size(), 0.0);
  r.advise_us.assign(in.grid.size(), 0.0);
  for (std::size_t i : permutation(mix(seed, 3), in.grid.size())) {
    const GridPoint& p = in.grid[i];
    const double work = static_cast<double>(p.workload.work);
    if (trace) {
      const am::model::ModelParams params = params_of(p.machine);
      const double t0 = now_us();
      (void)am::model::estimate_handoff(
          params, p.workload.threads, params.local_op_cycles(am::Primitive::kFaa));
      log.add({"model.handoff", t0, now_us(), -1, i});
    }
    pin_next_cpu();
    const double t0 = now_us();
    {
      const am::model::BouncingModel model(params_of(p.machine));
      (void)predict_with(model, p.workload);
    }
    const double t1 = now_us();
    {
      const am::model::BouncingModel model(params_of(p.machine));
      (void)am::model::advise_counter(model, p.workload.threads, work);
    }
    const double t2 = now_us();
    r.predict_us[i] = t1 - t0;
    r.advise_us[i] = t2 - t1;
    if (trace) {
      log.add({"model.predict", t0, t1, -1, i});
      log.add({"model.advise", t1, t2, -1, i});
    }
  }
  for (const am::service::CalibrateQuery& q : in.calibrations) {
    pin_next_cpu();
    const double t0 = now_us();
    const am::model::Calibration cal = calibrate_from(q);
    r.calibrate_us.push_back(now_us() - t0);
    ++out.attempted;
    if (!cal.ok) out.fail("calibration of " + q.machine + " failed");
    if (trace) log.add({"model.calibrate", t0, t0 + r.calibrate_us.back()});
  }
  r.digest = digest(record);
  return r;
}

/// Per-item medians across rounds of one field.
std::vector<double> item_medians(const std::vector<Round>& rounds,
                                 std::vector<double> Round::*field) {
  std::vector<double> out;
  const std::size_t n = (rounds.front().*field).size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back((r.*field)[i]);
    out.push_back(median(v));
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

Result run_batch_sim(const Options& o) {
  Result out;
  out.golden = "batch";
  const std::uint32_t variant = batch_variant(o.seed);
  BatchInputs in;
  Elfs elfs;
  std::vector<double> setup_s;
  std::string warm_digest;
  SpanLog untraced;
  for (int s = 0; s < kBatchSetups; ++s) {
    const double t0 = now_us();
    in = batch_inputs(variant);
    elfs = build_corpus();
    warm_digest = run_round(in, elfs, mix(o.seed, kMaxRounds + s), false,
                            untraced, nullptr, nullptr, out)
                      .digest;
    setup_s.push_back((now_us() - t0) / 1e6);
  }

  const std::size_t rounds = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(o.seconds * kBatchRoundsPerSecond)),
      2, kMaxRounds);
  SpanLog log;
  LayerStats stats;
  std::vector<double> measured;
  std::vector<Round> done;
  for (std::size_t k = 0; k < rounds; ++k) {
    // Exact totals and the model error come from round 0; every other round
    // must reproduce its digest.
    const bool first = k == 0;
    done.push_back(run_round(in, elfs, mix(o.seed, k), o.trace, log,
                             first ? &stats : nullptr,
                             first ? &measured : nullptr, out));
    if (done.back().digest != done.front().digest) {
      out.fail("round " + std::to_string(k) + " output differs from round 0");
    }
  }
  am::unpin_current_thread();
  if (warm_digest != done.front().digest) out.fail("warm-up round output differs");
  out.digests[variant] = done.front().digest;

  const std::vector<double> point = item_medians(done, &Round::point_us);
  const std::vector<double> guest = item_medians(done, &Round::guest_us);
  const std::vector<double> predict = item_medians(done, &Round::predict_us);
  const std::vector<double> advise = item_medians(done, &Round::advise_us);
  const std::vector<double> calibrate = item_medians(done, &Round::calibrate_us);
  std::vector<double> all;
  for (const auto* v : {&point, &guest, &predict, &advise, &calibrate}) {
    all.insert(all.end(), v->begin(), v->end());
  }
  out.metrics["req_p50_us"] = median(all);
  out.metrics["req_p90_us"] = quantile(all, 0.9);
  out.metrics["simulate_p50_us"] = median(point);
  out.metrics["run_guest_p50_us"] = median(guest);
  out.metrics["predict_p50_us"] = median(predict);
  out.metrics["advise_p50_us"] = median(advise);
  out.metrics["calibrate_p50_us"] = median(calibrate);
  out.metrics["sweep_points_per_s"] = point.size() * 1e6 / sum(point);
  // Guest instruction counts are exact and equal across rounds.
  out.metrics["guest_minstr_per_s"] =
      static_cast<double>(stats.guest_instructions) / sum(guest);
  out.metrics["model_tput_mape_pct"] =
      tput_mape_pct(grid_predictions(in.grid), measured);
  out.metrics["setup_s"] = median(setup_s);

  if (o.trace) {
    emit_layer_metrics(log, stats, out);
    std::vector<double> overhead;
    for (const Round& r : done) {
      overhead.push_back((r.engine_us - sum(r.point_us)) / r.point_us.size());
    }
    out.metrics["sweep.engine_overhead_p50_us"] = median(overhead);
    out.metrics["sweep.point_p50_ms"] = median(point) / 1e3;
    out.metrics["guest.run_p50_us"] = median(guest);
    out.metrics["model.predict_p50_us"] = median(predict);
    out.metrics["model.advise_p50_us"] = median(advise);
    out.metrics["model.calibrate_p50_us"] = median(calibrate);
    if (!o.spans_path.empty() && !log.write(o.spans_path)) {
      out.fail("cannot write spans to " + o.spans_path);
    }
  }
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  return out;
}

std::map<std::uint32_t, std::string> bless_batch(unsigned threads) {
  std::map<std::uint32_t, std::string> out;
  std::mutex mu;
  std::atomic<std::uint32_t> next{0};
  std::vector<std::thread> pool;
  const Elfs elfs = build_corpus();
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::uint32_t v = next++; v < kBatchVariants; v = next++) {
        // A round's digest does not depend on its order seed.
        SpanLog unused;
        Result scratch;
        const std::string d =
            run_round(batch_inputs(v), elfs, 0, false, unused, nullptr,
                      nullptr, scratch)
                .digest;
        std::lock_guard<std::mutex> lock(mu);
        out[v] = d;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

std::pair<double, double> mape_selftest(const std::string& machine) {
  const am::model::ValidationOptions t3;  // the T3 default grid
  const am::sim::MachineConfig mc = am::sim::preset_by_name(machine);
  std::vector<GridPoint> grid;
  for (am::Primitive prim : t3.primitives) {
    for (std::uint32_t n : t3.thread_counts) {
      if (n > mc.cores) continue;
      for (double w : t3.work_values) {
        GridPoint p;
        p.machine = machine;
        p.workload.prim = prim;
        p.workload.threads = n;
        p.workload.work = static_cast<am::bench::Cycles>(w);
        p.workload.seed = 29;
        p.backend_seed = 1;
        grid.push_back(p);
      }
    }
  }
  std::vector<std::size_t> order(grid.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> point_us;
  double engine_us = 0.0;
  const auto runs = run_grid(grid, order, &point_us, &engine_us);
  std::vector<double> measured;
  for (const auto& r : runs) measured.push_back(r ? r->throughput_ops_per_kcycle() : 0.0);
  const double ours = tput_mape_pct(grid_predictions(grid), measured);

  am::bench::SimBackend backend(mc);
  const am::model::BouncingModel model(am::model::ModelParams::from_machine(mc));
  const double reference =
      am::model::validate(backend, model, t3).mape_throughput * 100.0;
  am::bench::clear_run_log();
  return {ours, reference};
}

std::string batch_inputs_digest(const Options& o) {
  const BatchInputs in = batch_inputs(batch_variant(o.seed));
  std::string all = std::to_string(batch_variant(o.seed)) + "\n";
  for (const GridPoint& p : in.grid) {
    all += p.machine + " " + p.workload.describe() + " " +
           std::to_string(p.backend_seed) + "\n";
  }
  for (const GuestItem& g : in.guests) {
    all += g.kernel + " " + g.machine + " " + g.memory_model + " " +
           std::to_string(g.harts) + " " + std::to_string(g.seed) + "\n";
  }
  const std::size_t rounds = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(o.seconds * kBatchRoundsPerSecond)),
      2, kMaxRounds);
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t s = 1; s <= 3; ++s) {
      for (std::size_t i : permutation(mix(mix(o.seed, k), s),
                                       s == 2 ? in.guests.size() : in.grid.size())) {
        all += std::to_string(i) + " ";
      }
    }
  }
  return digest(all);
}

}  // namespace perfbench
