// Per-layer replays: each generated input is pushed through the public
// functions of the layers it reaches, with a span around every call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core/result.hpp"
#include "guest/runner.hpp"
#include "inputs.hpp"
#include "model/calibrate.hpp"
#include "measure.hpp"
#include "service/lru_cache.hpp"

namespace perfbench {

/// Host-time ratios and exact totals of the sim and guest layers.
struct LayerStats {
  std::vector<double> sim_ns_per_transfer;
  std::vector<double> sim_ns_per_op;
  std::vector<double> guest_ns_per_instr;   ///< spinlock / ticket_lock runs
  std::vector<double> guest_ns_per_atomic;  ///< faa_counter / treiber_push
  std::uint64_t sim_transfers = 0;
  std::uint64_t sim_ops = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t guest_instructions = 0;
  std::uint64_t guest_atomics = 0;

  void add_sim(const am::bench::MeasuredRun& run, double run_us);
  void add_guest(const std::string& kernel,
                 const am::guest::GuestRunResult& result, double run_us);
};

/// Replays one request the way a cache miss executes it: protocol parse /
/// key / render, LRU get+put on @p cache, and the compute layer of its kind.
/// @p result_json is the served result, used for render and put.
void replay_miss(const ServeItem& item, const std::string& result_json,
                 std::uint64_t req_id, am::service::ShardedLruCache& cache,
                 SpanLog& log, LayerStats& stats);

/// Replays one request line the way a cache hit executes it: protocol
/// parse / key / render, LRU get on @p cache (which must hold the key) and
/// ServiceCore::handle on the warmed @p core.
void replay_hit(const std::string& line, std::uint64_t req_id,
                am::service::ShardedLruCache& cache,
                am::service::ServiceCore& core, SpanLog& log);

/// model::calibrate over client samples, as the calibrate request kind runs
/// it: the shared-sample thread counts are the sweep.
am::model::Calibration calibrate_from(const am::service::CalibrateQuery& q);

/// Guest load + decode, as run_guest does before executing.
void replay_guest_load(const std::vector<std::uint8_t>& elf,
                       std::uint32_t harts, std::uint64_t req_id,
                       SpanLog& log);

/// Span-derived per-layer metrics (p50 of each span family that has
/// samples) plus the LayerStats ratios and totals.
void emit_layer_metrics(const SpanLog& log, const LayerStats& stats,
                        Result& out);

/// Tracing overhead: per request kind, p50 of traced requests over p50 of
/// untraced ones, median across kinds, in percent.
double trace_overhead_pct(const SpanLog& log);

}  // namespace perfbench
