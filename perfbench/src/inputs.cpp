#include "inputs.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "bench_core/sweep.hpp"
#include "common/base64.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "guest/corpus.hpp"
#include "sim/config.hpp"

namespace perfbench {

using am::Primitive;
using am::bench::WorkloadMode;
using am::service::RequestKind;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  return am::bench::splitmix64(am::bench::splitmix64(a) ^ (b + 0x9e3779b97f4a7c15ULL));
}

std::vector<std::size_t> permutation(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  am::Xoshiro256 rng(mix(seed, 0x5e9));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

std::vector<std::uint32_t> variant_sequence(std::uint64_t seed,
                                            std::uint32_t pool,
                                            std::size_t count) {
  const std::vector<std::size_t> perm = permutation(mix(seed, pool), pool);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < std::min<std::size_t>(count, pool); ++i) {
    out.push_back(static_cast<std::uint32_t>(perm[i]));
  }
  return out;
}

namespace {

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

struct Cell {
  RequestKind kind;
  const char* machine;
  std::uint32_t threads;  ///< threads, or harts for run_guest
  const char* sub;        ///< mode | advise target | kernel
  const char* prim;       ///< primitive | memory model (run_guest)
  double work;            ///< base work (predict/advise/simulate)
};

// (machine, threads) pairs of the model kinds: few pairs, many work values,
// so a hand-off memo keyed on (machine, threads) would show on predict and
// advise.
constexpr std::pair<const char*, std::uint32_t> kModelPairs[] = {
    {"xeon", 8}, {"xeon", 18}, {"knl", 16}, {"knl", 32}};

// The per-kind counts of a round (24 predict, 8 advise, 2 calibrate,
// 9 simulate, 8 run_guest) follow from this layout, not from recorded client
// traffic: the repository has none. They only keep predict and advise the
// majority. Revise them, and re-bless, when a traffic record exists.
std::vector<Cell> build_cells() {
  std::vector<Cell> cells;
  constexpr std::pair<const char*, const char*> kPredictShapes[] = {
      {"shared", "FAA"}, {"shared", "CAS"},  {"shared", "CASLOOP"},
      {"mixed", "FAA"},  {"zipf", "SWP"},    {"private", "TAS"}};
  for (const auto& [machine, threads] : kModelPairs) {
    for (const auto& [mode, prim] : kPredictShapes) {
      cells.push_back({RequestKind::kPredict, machine, threads, mode, prim, 0});
    }
  }
  for (const auto& [machine, threads] : kModelPairs) {
    cells.push_back({RequestKind::kAdvise, machine, threads, "counter", "", 0});
    cells.push_back({RequestKind::kAdvise, machine, threads, "lock", "", 50});
  }
  cells.push_back({RequestKind::kCalibrate, "xeon", 0, "", "", 0});
  cells.push_back({RequestKind::kCalibrate, "knl", 0, "", "", 0});
  constexpr Cell kSimulate[] = {
      {RequestKind::kSimulate, "xeon", 8, "shared", "FAA", 0},
      {RequestKind::kSimulate, "xeon", 4, "shared", "CASLOOP", 100},
      {RequestKind::kSimulate, "xeon", 4, "private", "CAS", 50},
      {RequestKind::kSimulate, "xeon", 8, "mixed", "FAA", 100},
      {RequestKind::kSimulate, "xeon", 4, "zipf", "SWP", 100},
      {RequestKind::kSimulate, "knl", 8, "shared", "CAS", 0},
      {RequestKind::kSimulate, "knl", 4, "private", "FAA", 50},
      {RequestKind::kSimulate, "knl", 4, "mixed", "TAS", 100},
      {RequestKind::kSimulate, "knl", 8, "zipf", "FAA", 200}};
  cells.insert(cells.end(), std::begin(kSimulate), std::end(kSimulate));
  for (const std::string& kernel : am::guest::corpus::names()) {
    // Corpus names live in a function-local static: the pointer stays valid.
    cells.push_back({RequestKind::kRunGuest, "xeon", 4, kernel.c_str(), "sc", 0});
    cells.push_back({RequestKind::kRunGuest, "knl", 4, kernel.c_str(), "tso", 0});
  }
  return cells;
}

const std::vector<Cell>& cells() {
  static const std::vector<Cell> kCells = build_cells();
  return kCells;
}

const std::string& corpus_base64(const std::string& kernel) {
  static const std::map<std::string, std::string> kElf = [] {
    std::map<std::string, std::string> out;
    for (const std::string& name : am::guest::corpus::names()) {
      const std::vector<std::uint8_t> elf = am::guest::corpus::build(name);
      out[name] = am::base64_encode(
          std::string_view(reinterpret_cast<const char*>(elf.data()), elf.size()));
    }
    return out;
  }();
  return kElf.at(kernel);
}

/// Client probe samples of the calibrate cells and the batch calibrations:
/// private local costs per primitive plus a shared FAA sweep.
std::vector<am::service::CalibrateSample> calibrate_samples(
    const std::string& machine, std::uint32_t variant) {
  // Quarter-cycle jitter keeps every value exact in binary and in JSON and
  // distinct for every variant, so no two variants share a calibrate key.
  const double j = static_cast<double>(variant) * 0.25;
  std::vector<am::service::CalibrateSample> out;
  constexpr std::pair<Primitive, double> kLocal[] = {
      {Primitive::kLoad, 4},  {Primitive::kStore, 5}, {Primitive::kSwap, 24},
      {Primitive::kTas, 24},  {Primitive::kFaa, 24},  {Primitive::kCas, 26},
      {Primitive::kCasLoop, 30}};
  for (const auto& [prim, cost] : kLocal) {
    out.push_back({"private", prim, 1, cost + j});
  }
  const bool xeon = machine == "xeon";
  const std::uint32_t sweep[] = {2, 8, 16, xeon ? 36u : 64u};
  for (const std::uint32_t t : sweep) {
    out.push_back({"shared", Primitive::kFaa, t,
                   (xeon ? 60.0 + 4.0 * t : 80.0 + 3.0 * t) + j});
  }
  return out;
}

std::string samples_json(const std::vector<am::service::CalibrateSample>& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"mode\":\"" + s[i].mode + "\",\"prim\":\"" +
           am::to_string(s[i].prim) + "\",\"threads\":" +
           std::to_string(s[i].threads) +
           ",\"cycles_per_op\":" + num(s[i].cycles_per_op) + "}";
  }
  return out + "]";
}

}  // namespace

std::size_t serve_cell_count() { return cells().size(); }

ServeItem serve_item(std::size_t cell, std::uint32_t variant) {
  const Cell& c = cells().at(cell);
  const std::string head = "{\"v\":\"am-serve/1\",\"kind\":\"" +
                           std::string(am::service::to_string(c.kind)) +
                           "\",\"machine\":\"" + c.machine + "\"";
  const double v = variant;
  std::string line;
  switch (c.kind) {
    case RequestKind::kPredict:
      line = head + ",\"mode\":\"" + c.sub + "\",\"prim\":\"" + c.prim +
             "\",\"threads\":" + std::to_string(c.threads) +
             ",\"work\":" + num(c.work + 40.0 * v) + "}";
      break;
    case RequestKind::kAdvise:
      line = head + ",\"target\":\"" + c.sub +
             "\",\"threads\":" + std::to_string(c.threads) +
             (std::string(c.sub) == "lock"
                  ? ",\"critical\":" + num(c.work + 5.0 * v) + ",\"outside\":200"
                  : ",\"work\":" + num(c.work + 40.0 * v)) +
             "}";
      break;
    case RequestKind::kCalibrate:
      line = head + ",\"samples\":" +
             samples_json(calibrate_samples(c.machine, variant)) + "}";
      break;
    case RequestKind::kSimulate:
      line = head + ",\"mode\":\"" + c.sub + "\",\"prim\":\"" + c.prim +
             "\",\"threads\":" + std::to_string(c.threads) +
             ",\"work\":" + num(c.work) +
             ",\"seed\":" + std::to_string(variant + 1) + "}";
      break;
    case RequestKind::kRunGuest:
      line = head + ",\"memory_model\":\"" + c.prim +
             "\",\"harts\":" + std::to_string(c.threads) +
             ",\"seed\":" + std::to_string(variant + 1) + ",\"elf\":\"" +
             corpus_base64(c.sub) + "\"}";
      break;
    default:
      break;
  }
  return {c.kind, line, c.kind == RequestKind::kRunGuest ? c.sub : ""};
}

std::uint32_t batch_variant(std::uint64_t seed) noexcept {
  return static_cast<std::uint32_t>(mix(seed, 0xba7c) % kBatchVariants);
}

BatchInputs batch_inputs(std::uint32_t variant) {
  BatchInputs in;
  const am::bench::Cycles v = variant;
  for (const char* machine : {"xeon", "knl"}) {
    auto add = [&](WorkloadMode mode, Primitive prim, std::uint32_t threads,
                   am::bench::Cycles work) {
      GridPoint p;
      p.machine = machine;
      p.workload.mode = mode;
      p.workload.prim = prim;
      p.workload.threads = threads;
      p.workload.work = work;
      p.workload.seed = 29;
      p.backend_seed = mix(variant + 1, in.grid.size()) | 1;
      in.grid.push_back(p);
    };
    for (Primitive prim : {Primitive::kFaa, Primitive::kCas,
                           Primitive::kCasLoop, Primitive::kSwap}) {
      for (std::uint32_t t : {4u, 8u, 16u}) {
        add(WorkloadMode::kHighContention, prim, t, v);
      }
    }
    for (Primitive prim : {Primitive::kFaa, Primitive::kCas}) {
      for (std::uint32_t t : {4u, 8u, 16u}) {
        add(WorkloadMode::kLowContention, prim, t, 50 + v);
      }
    }
    for (std::uint32_t t : {4u, 8u, 16u}) {
      add(WorkloadMode::kMixedReadWrite, Primitive::kFaa, t, 100 + v);
      add(WorkloadMode::kZipf, Primitive::kFaa, t, 100 + v);
    }
    am::service::CalibrateQuery q;
    q.machine = machine;
    q.samples = calibrate_samples(machine, variant);
    in.calibrations.push_back(q);
  }
  for (const std::string& kernel : am::guest::corpus::names()) {
    for (std::uint32_t harts : {1u, 2u, 4u, 8u, 16u}) {
      for (const char* machine : {"xeon", "knl"}) {
        for (const char* mm : {"sc", "tso"}) {
          GuestItem g{kernel, machine, mm, harts, 0};
          g.seed = 1 + mix(variant + 1, 1000 + in.guests.size()) % 1000000;
          in.guests.push_back(g);
        }
      }
    }
  }
  return in;
}

am::model::ModelParams params_of(const std::string& machine) {
  return am::model::ModelParams::from_machine(am::sim::preset_by_name(machine));
}

am::model::Prediction predict_with(const am::model::BouncingModel& m,
                                   const am::bench::WorkloadConfig& w) {
  const double work = static_cast<double>(w.work);
  switch (w.mode) {
    case WorkloadMode::kLowContention:
      return m.predict_private(w.prim, w.threads, work);
    case WorkloadMode::kMixedReadWrite:
      return m.predict_mixed(w.prim, w.write_fraction, w.threads, work);
    case WorkloadMode::kZipf:
      return m.predict_zipf(w.prim, w.threads, work, w.zipf_lines, w.zipf_s);
    default:
      return m.predict(w.prim, w.threads, work);
  }
}

double predicted_tput(const std::string& machine,
                      const am::bench::WorkloadConfig& w) {
  // One model per preset keeps the hand-off memo warm across points; the
  // model is not thread-safe, so callers use this from one thread.
  static std::map<std::string, am::model::BouncingModel> models;
  auto it = models.find(machine);
  if (it == models.end()) {
    it = models
             .emplace(machine, am::model::BouncingModel(params_of(machine)))
             .first;
  }
  return predict_with(it->second, w).throughput_ops_per_kcycle;
}

double tput_mape_pct(const std::vector<double>& predicted,
                     const std::vector<double>& measured) {
  return am::mape(predicted, measured) * 100.0;
}

}  // namespace perfbench
