// Seeded input generation for the three benchmark workloads.
//
// Inputs are built from fixed *cells* (one request shape, grid point or guest
// run each) crossed with a *variant* drawn from a finite pool. A variant
// changes only values that leave the cost of an item nearly unchanged (work,
// simulator and guest seeds, calibration sample values), so runs with
// different seeds do the same amount of work of the same kinds, while every
// input any seed can produce has a committed golden digest (golden/*.txt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core/workload.hpp"
#include "model/bouncing_model.hpp"
#include "service/protocol.hpp"

namespace perfbench {

/// Variant pool of the serve workloads (serve_cold rounds draw distinct
/// variants from it, so a run holds at most this many rounds).
inline constexpr std::uint32_t kServeVariants = 128;
/// Variant pool of batch_sim (one variant per run).
inline constexpr std::uint32_t kBatchVariants = 32;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept;

/// The first @p count entries of a seeded permutation of [0, pool).
std::vector<std::uint32_t> variant_sequence(std::uint64_t seed,
                                            std::uint32_t pool,
                                            std::size_t count);

/// A seeded permutation of [0, n).
std::vector<std::size_t> permutation(std::uint64_t seed, std::size_t n);

// --- serve workloads ---------------------------------------------------------

/// The request kinds that compute (and cache) a result.
inline constexpr am::service::RequestKind kComputeKinds[] = {
    am::service::RequestKind::kPredict, am::service::RequestKind::kAdvise,
    am::service::RequestKind::kCalibrate, am::service::RequestKind::kSimulate,
    am::service::RequestKind::kRunGuest};

struct ServeItem {
  am::service::RequestKind kind = am::service::RequestKind::kPing;
  std::string line;  ///< one am-serve/1 request line: no id, no '\n'
  std::string kernel;  ///< corpus program of a run_guest item
};

std::size_t serve_cell_count();
ServeItem serve_item(std::size_t cell, std::uint32_t variant);

// --- batch_sim ---------------------------------------------------------------

struct GridPoint {
  std::string machine;  ///< sim preset name
  am::bench::WorkloadConfig workload;
  std::uint64_t backend_seed = 1;
};

struct GuestItem {
  std::string kernel;  ///< guest::corpus program name
  std::string machine;
  std::string memory_model;  ///< sc | tso
  std::uint32_t harts = 1;
  std::uint64_t seed = 1;
};

struct BatchInputs {
  std::vector<GridPoint> grid;
  std::vector<GuestItem> guests;
  std::vector<am::service::CalibrateQuery> calibrations;  ///< one per preset
};

std::uint32_t batch_variant(std::uint64_t seed) noexcept;
BatchInputs batch_inputs(std::uint32_t variant);

// --- model -------------------------------------------------------------------

/// Analytic model parameters of a sim preset.
am::model::ModelParams params_of(const std::string& machine);

/// The bouncing model's prediction for a workload, dispatched on its mode
/// the way the predict request kind dispatches.
am::model::Prediction predict_with(const am::model::BouncingModel& model,
                                   const am::bench::WorkloadConfig& w);

/// The bouncing model's throughput (ops/kcycle) for a simulated point, with
/// analytic parameters of the named preset.
double predicted_tput(const std::string& machine,
                      const am::bench::WorkloadConfig& w);

/// Mean absolute percentage error of @p predicted against @p measured, in
/// percent (model::validate reports the same quantity as a fraction).
double tput_mape_pct(const std::vector<double>& predicted,
                     const std::vector<double>& measured);

}  // namespace perfbench
