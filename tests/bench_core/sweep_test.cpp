// SweepEngine contract tests: the determinism golden test (byte-identical
// run logs and reports at any --jobs), per-point seed replay, bit-exact
// result caching, and a TSan-targeted stress mix. The pool-overlap check
// uses a sleeping fake backend so it holds even on a 1-core CI host.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_core/report.hpp"
#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "bench_core/sweep_io.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"

namespace am::bench {
namespace {

// Short windows keep each simulated point cheap; results stay nontrivial.
constexpr SimBackendOptions kFastSim{2'000, 10'000};

SweepEngine::BackendFactory test_sim_factory() {
  return [](std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
    return std::make_unique<SimBackend>(sim::preset_by_name("test"), kFastSim,
                                        seed);
  };
}

std::vector<WorkloadConfig> sample_grid() {
  std::vector<WorkloadConfig> grid;
  for (std::uint32_t threads : {2u, 4u}) {
    for (Primitive prim : {Primitive::kFaa, Primitive::kCasLoop}) {
      WorkloadConfig w;
      w.mode = WorkloadMode::kHighContention;
      w.prim = prim;
      w.threads = threads;
      grid.push_back(w);
    }
  }
  WorkloadConfig zipf;
  zipf.mode = WorkloadMode::kZipf;
  zipf.threads = 4;
  zipf.zipf_lines = 32;
  zipf.zipf_s = 0.9;
  grid.push_back(zipf);
  return grid;
}

// Renders the current run log exactly as --json-out would, with wall-clock
// metadata pinned so byte comparison is meaningful.
std::string report_of_run_log() {
  ReportMeta meta;
  meta.bench = "sweep_test";
  meta.title = "golden";
  meta.backend = "sim:test";
  meta.machine = "test";
  meta.command = "sweep_test";
  meta.wall_time_s = 0.0;
  std::ostringstream os;
  write_run_report(os, meta, nullptr, run_log());
  return os.str();
}

std::string run_grid(unsigned jobs, const std::string& cache_dir,
                     std::size_t* executed = nullptr,
                     std::size_t* hits = nullptr) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = jobs;
  opts.cache_dir = cache_dir;
  opts.base_seed = 42;
  SweepEngine engine(test_sim_factory(), opts);
  for (const WorkloadConfig& w : sample_grid()) engine.submit(w);
  engine.drain();
  if (executed != nullptr) *executed = engine.executed_points();
  if (hits != nullptr) *hits = engine.cache_hits();
  return report_of_run_log();
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("am_sweep_test_") + tag + "_" +
            std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(PointSeed, DeterministicDistinctAndNeverZero) {
  EXPECT_EQ(sweep_point_seed(1, 0), sweep_point_seed(1, 0));
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = sweep_point_seed(7, i);
    EXPECT_NE(s, 0u);
    seen.push_back(s);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_NE(sweep_point_seed(1, 3), sweep_point_seed(2, 3));
}

// The golden test: the same grid at jobs=1 and jobs=8 must produce
// byte-identical run logs, hence byte-identical am-run-report documents.
TEST(SweepDeterminism, RunLogIdenticalAcrossJobs) {
  const std::string serial = run_grid(1, "");
  const std::string pooled = run_grid(8, "");
  EXPECT_EQ(serial, pooled);
  EXPECT_NE(serial.find("am-run-report/1"), std::string::npos);
  clear_run_log();
}

// Any pooled point is replayable in isolation: same preset, same workload,
// seed = sweep_point_seed(base, i) reproduces the pooled MeasuredRun
// bit-exactly.
TEST(SweepDeterminism, PerPointReplayReproducesPooledResult) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 4;
  opts.base_seed = 42;
  SweepEngine engine(test_sim_factory(), opts);
  const std::vector<WorkloadConfig> grid = sample_grid();
  for (const WorkloadConfig& w : grid) engine.submit(w);
  engine.drain();

  for (std::size_t i = 0; i < grid.size(); ++i) {
    SimBackend replay(sim::preset_by_name("test"), kFastSim,
                      sweep_point_seed(42, i));
    std::vector<RecordedRun> local;
    replay.set_run_recorder(&local);
    const MeasuredRun rerun = replay.run(grid[i]);
    const MeasuredRun* pooled = engine.result_or_null(i);
    ASSERT_NE(pooled, nullptr) << "point " << i;
    EXPECT_EQ(serialize_measured_run(rerun, "k"),
              serialize_measured_run(*pooled, "k"))
        << "point " << i << " not replayable";
  }
  clear_run_log();
}

TEST(SweepCache, SerializationRoundTripsBitExactly) {
  MeasuredRun run;
  run.backend = "sim";
  run.machine = "test \"quoted\" \xE2\x9C\x93";  // exercises JSON escaping
  run.duration_cycles = 10'000.0;
  run.freq_ghz = 0.1 + 0.2;  // not exactly 0.3: bit pattern must survive
  ThreadResult t;
  t.ops = 123;
  t.attempts = 456;
  t.mean_latency_cycles = std::numeric_limits<double>::denorm_min();
  t.p99_latency_cycles = -0.0;
  t.latency_tail_valid = true;
  t.ops_by_prim[2] = 99;
  run.threads.push_back(t);
  run.transfers[1] = 7;
  run.hot_lines.push_back(LineHotness{5, 10, 9, 3, 1.5, 4, 2.25, {1, 2, 3, 4}});
  run.epochs.push_back(EpochPoint{0.0, 5, 6, 0.5, 0.25, 2});
  run.epoch_cycles = 1000.0;
  run.energy_valid = true;
  run.energy_package_j = 1e-9;

  const std::string key = "deadbeefdeadbeef";
  const std::string text = serialize_measured_run(run, key);
  const auto parsed = parse_measured_run(text, key);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serialize_measured_run(*parsed, key), text);
  // -0.0 and the denormal survive exactly (they would not through "%.12g").
  EXPECT_TRUE(std::signbit(parsed->threads[0].p99_latency_cycles));
  EXPECT_EQ(parsed->threads[0].mean_latency_cycles,
            std::numeric_limits<double>::denorm_min());

  // A document written under another key is rejected (stale/collided file).
  EXPECT_FALSE(parse_measured_run(text, "0000000000000000").has_value());
  // Corrupt documents are a miss, not a crash.
  EXPECT_FALSE(parse_measured_run(text.substr(0, text.size() / 2), key)
                   .has_value());
  EXPECT_FALSE(parse_measured_run("not json", key).has_value());
}

TEST(SweepCache, WarmRerunSimulatesNothingAndMatchesByteForByte) {
  TempDir dir("cache");
  std::size_t executed = 0, hits = 0;
  const std::string cold = run_grid(3, dir.path.string(), &executed, &hits);
  const std::size_t n = sample_grid().size();
  EXPECT_EQ(executed, n);
  EXPECT_EQ(hits, 0u);

  const std::string warm = run_grid(3, dir.path.string(), &executed, &hits);
  EXPECT_EQ(executed, 0u) << "warm cache rerun must simulate zero points";
  EXPECT_EQ(hits, n);
  EXPECT_EQ(cold, warm);

  // The cache key sees the seed: a different base seed must miss.
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir.path.string();
  opts.base_seed = 43;
  SweepEngine engine(test_sim_factory(), opts);
  for (const WorkloadConfig& w : sample_grid()) engine.submit(w);
  engine.drain();
  EXPECT_EQ(engine.executed_points(), n);
  clear_run_log();
}

// A backend that sleeps instead of computing: overlap is observable even on
// a single-core host, where CPU-bound points cannot speed up.
class SleepingBackend final : public ExecutionBackend {
 public:
  explicit SleepingBackend(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "fake"; }
  std::string machine_name() const override { return "fake"; }
  std::uint32_t max_threads() const override { return 64; }
  double freq_ghz() const override { return 1.0; }

 protected:
  MeasuredRun do_run(const WorkloadConfig& config) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    MeasuredRun r;
    r.backend = "fake";
    r.machine = "fake";
    r.duration_cycles = 1000.0;
    ThreadResult t;
    t.ops = seed_ ^ config.seed;  // marks which seed produced the result
    r.threads.push_back(t);
    return r;
  }

 private:
  std::uint64_t seed_;
};

TEST(SweepPool, PointsOverlapInTime) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 8;
  SweepEngine engine(
      [](std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        return std::make_unique<SleepingBackend>(seed);
      },
      opts);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) engine.submit(WorkloadConfig{});
  engine.drain();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Serial would take 8 x 30ms = 240ms; overlapped, well under half that.
  EXPECT_LT(elapsed, std::chrono::milliseconds(120))
      << "8 sleeping points did not overlap";
  EXPECT_EQ(run_log().size(), 8u);
  clear_run_log();
}

// TSan target: many quick points and tasks racing through a narrow pool,
// with stats polled concurrently. Ordering must still equal submission.
TEST(SweepStress, MixedPointsAndTasksKeepSubmissionOrder) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 4;
  opts.base_seed = 9;
  SweepEngine engine(
      [](std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        return std::make_unique<SleepingBackend>(seed);
      },
      opts);

  constexpr int kPoints = 48;
  std::atomic<int> task_runs{0};
  for (int i = 0; i < kPoints; ++i) {
    if (i % 5 == 0) {
      engine.submit_task(
          [&task_runs](std::uint64_t seed, std::vector<RecordedRun>& log) {
            SleepingBackend b(seed);
            b.set_run_recorder(&log);
            WorkloadConfig w;
            w.seed = 77;
            (void)b.run(w);
            task_runs.fetch_add(1, std::memory_order_relaxed);
          });
    } else {
      WorkloadConfig w;
      w.seed = static_cast<std::uint64_t>(i);
      engine.submit(w);
    }
    (void)engine.executed_points();  // concurrent stats reads under TSan
    (void)engine.cache_hits();
  }
  engine.drain();

  ASSERT_EQ(run_log().size(), static_cast<std::size_t>(kPoints));
  EXPECT_EQ(task_runs.load(), (kPoints + 4) / 5);
  for (int i = 0; i < kPoints; ++i) {
    const RecordedRun& rec = run_log()[static_cast<std::size_t>(i)];
    const std::uint64_t expect_seed =
        i % 5 == 0 ? 77u : static_cast<std::uint64_t>(i);
    EXPECT_EQ(rec.workload.seed, expect_seed) << "slot " << i;
    ASSERT_EQ(rec.run.threads.size(), 1u);
    EXPECT_EQ(rec.run.threads[0].ops,
              sweep_point_seed(9, static_cast<std::uint64_t>(i)) ^
                  expect_seed)
        << "slot " << i << " ran under the wrong point seed";
  }
  clear_run_log();
}

// --- failure isolation -------------------------------------------------------

// Magic workload seeds that make FlakyBackend fail a point in a chosen way;
// every other seed produces a normal (fast, deterministic) fake result.
constexpr std::uint64_t kSeedSimError = 1001;
constexpr std::uint64_t kSeedTimeout = 1002;

class FlakyBackend final : public ExecutionBackend {
 public:
  explicit FlakyBackend(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "flaky"; }
  std::string machine_name() const override { return "flaky"; }
  std::uint32_t max_threads() const override { return 64; }
  double freq_ghz() const override { return 1.0; }

 protected:
  MeasuredRun do_run(const WorkloadConfig& config) override {
    if (config.seed == kSeedSimError) {
      throw std::runtime_error("point exploded");
    }
    if (config.seed == kSeedTimeout) {
      throw sim::PointTimeout(sim::PointTimeout::Kind::kCycleBudget, 12'345,
                              99);
    }
    MeasuredRun r;
    r.backend = "flaky";
    r.machine = "flaky";
    r.duration_cycles = 1000.0;
    ThreadResult t;
    t.ops = seed_ ^ config.seed;
    r.threads.push_back(t);
    return r;
  }

 private:
  std::uint64_t seed_;
};

SweepEngine::BackendFactory flaky_factory() {
  return [](std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
    return std::make_unique<FlakyBackend>(seed);
  };
}

// The core isolation contract: a sweep with failing points drains without
// throwing, surviving results stay intact in submission order, and the run
// log (hence the report) is byte-identical at any --jobs.
std::string run_flaky_grid(unsigned jobs, SweepEngine** out = nullptr,
                           std::vector<std::size_t>* indices = nullptr) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = jobs;
  opts.base_seed = 5;
  static std::unique_ptr<SweepEngine> engine;  // kept alive for the caller
  engine = std::make_unique<SweepEngine>(flaky_factory(), opts);
  constexpr int kPoints = 10;
  for (int i = 0; i < kPoints; ++i) {
    WorkloadConfig w;
    w.seed = i == 2 ? kSeedSimError
                    : i == 5 ? kSeedTimeout : static_cast<std::uint64_t>(i);
    const std::size_t idx = engine->submit(w);
    if (indices != nullptr) indices->push_back(idx);
  }
  engine->drain();
  if (out != nullptr) *out = engine.get();
  return report_of_run_log();
}

TEST(SweepFailureIsolation, FailedPointsDegradeSurvivorsIntact) {
  SweepEngine* engine = nullptr;
  const std::string report = run_flaky_grid(4, &engine);

  // 2 of 10 points failed; the other 8 flush in submission order.
  ASSERT_EQ(run_log().size(), 8u);
  std::vector<std::uint64_t> expect_seeds = {0, 1, 3, 4, 6, 7, 8, 9};
  for (std::size_t i = 0; i < run_log().size(); ++i) {
    EXPECT_EQ(run_log()[i].workload.seed, expect_seeds[i]) << "slot " << i;
  }

  EXPECT_EQ(engine->ok_points(), 8u);
  EXPECT_EQ(engine->outcome(2).status, PointStatus::kSimError);
  EXPECT_NE(engine->outcome(2).message.find("point exploded"),
            std::string::npos);
  EXPECT_EQ(engine->outcome(5).status, PointStatus::kTimeout);
  EXPECT_NE(engine->outcome(5).message.find("cycle budget"),
            std::string::npos);
  EXPECT_EQ(engine->result_or_null(2), nullptr);
  EXPECT_NE(engine->result_or_null(3), nullptr);

  const auto failed = engine->failed_points();
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].index, 2u);
  EXPECT_EQ(failed[0].status, PointStatus::kSimError);
  EXPECT_EQ(failed[1].index, 5u);
  EXPECT_EQ(failed[1].status, PointStatus::kTimeout);
  EXPECT_EQ(failed[0].seed, sweep_point_seed(5, 2));
  clear_run_log();
}

TEST(SweepFailureIsolation, ReportBytesIdenticalAcrossJobsWithFailures) {
  const std::string serial = run_flaky_grid(1);
  const std::string pooled = run_flaky_grid(8);
  EXPECT_EQ(serial, pooled);
  clear_run_log();
}

TEST(SweepFailureIsolation, FailedTaskIsIsolatedToo) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 2;
  SweepEngine engine(flaky_factory(), opts);
  engine.submit(WorkloadConfig{});
  engine.submit_task([](std::uint64_t, std::vector<RecordedRun>&) {
    throw std::runtime_error("task exploded");
  });
  engine.submit(WorkloadConfig{});
  engine.drain();  // must not throw
  EXPECT_EQ(run_log().size(), 2u) << "both healthy points flush";
  const auto failed = engine.failed_points();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].index, 1u);
  EXPECT_TRUE(failed[0].is_task);
  EXPECT_EQ(failed[0].status, PointStatus::kSimError);
  clear_run_log();
}

// --- cancellation ------------------------------------------------------------

TEST(SweepCancel, PreCancelledSweepDrainsWithAllPointsCancelled) {
  clear_run_log();
  SweepEngine::request_cancel();
  SweepOptions opts;
  opts.jobs = 2;
  SweepEngine engine(flaky_factory(), opts);
  for (int i = 0; i < 4; ++i) engine.submit(WorkloadConfig{});
  engine.drain();  // completes despite nothing running
  SweepEngine::clear_cancel();

  EXPECT_EQ(run_log().size(), 0u);
  EXPECT_EQ(engine.ok_points(), 0u);
  const auto failed = engine.failed_points();
  ASSERT_EQ(failed.size(), 4u);
  for (const auto& f : failed) {
    EXPECT_EQ(f.status, PointStatus::kCancelled);
  }
  clear_run_log();
}

// --- cache self-healing ------------------------------------------------------

TEST(SweepCacheHealing, CorruptCacheFileQuarantinedAndRecomputed) {
  TempDir dir("heal");
  const std::string cache = dir.path.string();
  std::size_t executed = 0, hits = 0;
  const std::string cold = run_grid(2, cache, &executed, &hits);
  const std::size_t n = sample_grid().size();
  ASSERT_EQ(executed, n);

  // Corrupt two cache files in place: one with garbage bytes, one with a
  // document that keeps its own version and key but lost every other member
  // (the shape that once crashed the parser).
  std::vector<std::filesystem::path> victims;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    if (e.path().extension() == ".json") victims.push_back(e.path());
  }
  ASSERT_GE(victims.size(), 2u);
  victims.resize(2);
  {
    std::ofstream out(victims[0], std::ios::trunc);
    out << "garbage bytes, not a cached run";
  }
  {
    std::ofstream out(victims[1], std::ios::trunc);
    out << "{\"v\":\"" << kSweepCacheVersion << "\",\"key\":\""
        << victims[1].stem().string() << "\"}\n";
  }

  clear_run_log();
  SweepOptions opts;
  opts.jobs = 2;
  opts.cache_dir = cache;
  opts.base_seed = 42;
  SweepEngine engine(test_sim_factory(), opts);
  for (const WorkloadConfig& w : sample_grid()) engine.submit(w);
  engine.drain();
  EXPECT_EQ(engine.cache_hits(), n - 2);
  EXPECT_EQ(engine.executed_points(), 2u) << "only the corrupt points rerun";
  EXPECT_EQ(engine.quarantined_files(), 2u);
  EXPECT_EQ(report_of_run_log(), cold) << "healed rerun stays byte-identical";

  // The bad files moved into <cache>/quarantine/ for postmortem.
  const auto qdir = dir.path / "quarantine";
  ASSERT_TRUE(std::filesystem::is_directory(qdir));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(qdir),
                          std::filesystem::directory_iterator()),
            2);
  clear_run_log();
}

// A file that carries the right version and key but whose body is wrong
// (members missing, counts out of range, mistyped array elements) is a miss,
// never a crash and never a silent reinterpretation of the numbers.
TEST(SweepCacheHealing, MalformedVersionedDocsAreRejected) {
  MeasuredRun run;
  run.backend = "sim";
  run.machine = "test";
  run.threads.push_back(ThreadResult{});
  run.invalidations = 3;
  const std::string key = "deadbeefdeadbeef";
  const std::string good = serialize_measured_run(run, key);
  ASSERT_TRUE(parse_measured_run(good, key).has_value());

  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  const std::string header =
      std::string("{\"v\":\"") + kSweepCacheVersion + "\",\"key\":\"" + key +
      "\"";
  EXPECT_FALSE(parse_measured_run(header + "}", key).has_value())
      << "every member missing";
  EXPECT_FALSE(parse_measured_run(with("\"backend\":\"sim\",", ""), key)
                   .has_value())
      << "backend missing";
  EXPECT_FALSE(
      parse_measured_run(with("\"backend\":\"sim\"", "\"backend\":7"), key)
          .has_value())
      << "backend not a string";
  EXPECT_FALSE(parse_measured_run(
                   with("\"invalidations\":3", "\"invalidations\":-1"), key)
                   .has_value())
      << "negative count";
  EXPECT_FALSE(parse_measured_run(
                   with("\"invalidations\":3", "\"invalidations\":1.5"), key)
                   .has_value())
      << "fractional count";
  EXPECT_FALSE(parse_measured_run(
                   with("\"invalidations\":3", "\"invalidations\":1e30"), key)
                   .has_value())
      << "count beyond 2^64";
  EXPECT_FALSE(
      parse_measured_run(with("\"transfers\":[0,", "\"transfers\":[\"x\","), key)
          .has_value())
      << "string inside transfers";
  EXPECT_FALSE(parse_measured_run(
                   with("\"freq_ghz\":\"", "\"freq_ghz\":\"zz"), key)
                   .has_value())
      << "bit pattern that is not 16 hex digits";
}

TEST(SweepCacheHealing, WriteFailuresDegradeAndAreCounted) {
  TempDir dir("enospc");
  sweep::IoFaults faults;
  faults.write_enospc = -1;  // every cache write fails, every retry
  sweep::set_io_faults(&faults);
  std::size_t executed = 0, hits = 0;
  (void)run_grid(2, dir.path.string(), &executed, &hits);
  sweep::set_io_faults(nullptr);
  const std::size_t n = sample_grid().size();
  EXPECT_EQ(executed, n) << "results must not be lost to cache I/O errors";

  // Nothing was cached, so a clean rerun re-executes everything.
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir.path.string();
  opts.base_seed = 42;
  SweepEngine engine(test_sim_factory(), opts);
  for (const WorkloadConfig& w : sample_grid()) engine.submit(w);
  engine.drain();
  EXPECT_EQ(engine.cache_hits(), 0u);
  EXPECT_EQ(engine.executed_points(), n);
  clear_run_log();
}

TEST(SweepCacheHealing, TransientWriteFaultIsRetriedAway) {
  const std::size_t n = sample_grid().size();
  // Exactly one injected failure of each kind, then healthy. A torn write
  // leaves half the bytes in the temp file; the rename never publishes it.
  for (const auto fault : {&sweep::IoFaults::write_enospc,
                           &sweep::IoFaults::torn_write,
                           &sweep::IoFaults::rename_eio}) {
    TempDir dir("transient");
    sweep::IoFaults faults;
    (faults.*fault) = 1;
    sweep::set_io_faults(&faults);
    std::size_t executed = 0, hits = 0;
    const std::string cold = run_grid(1, dir.path.string(), &executed, &hits);
    sweep::set_io_faults(nullptr);
    EXPECT_EQ(executed, n);
    EXPECT_EQ((faults.*fault).load(), 0) << "the fault was injected";

    // The retry absorbed the fault: the warm rerun hits every point.
    EXPECT_EQ(run_grid(1, dir.path.string(), &executed, &hits), cold);
    EXPECT_EQ(executed, 0u);
    EXPECT_EQ(hits, n);
  }
  clear_run_log();
}

TEST(SweepCacheHealing, EscalatedReadFaultFailsPointsAsCacheError) {
  TempDir dir("escalate");
  std::size_t executed = 0, hits = 0;
  (void)run_grid(1, dir.path.string(), &executed, &hits);  // warm the cache
  const std::size_t n = sample_grid().size();
  ASSERT_EQ(executed, n);

  sweep::IoFaults faults;
  faults.read_eio = -1;
  faults.escalate_read = true;
  sweep::set_io_faults(&faults);
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir.path.string();
  opts.base_seed = 42;
  SweepEngine engine(test_sim_factory(), opts);
  for (const WorkloadConfig& w : sample_grid()) engine.submit(w);
  engine.drain();
  sweep::set_io_faults(nullptr);

  EXPECT_EQ(engine.ok_points(), 0u);
  EXPECT_GE(engine.cache_io_errors(), n);
  const auto failed = engine.failed_points();
  ASSERT_EQ(failed.size(), n);
  for (const auto& f : failed) {
    EXPECT_EQ(f.status, PointStatus::kCacheError);
    EXPECT_NE(f.message.find("cache read failed"), std::string::npos);
  }
  clear_run_log();
}

// --- replay ------------------------------------------------------------------

TEST(SweepReplay, ReplayPointRunsExactlyOneBypassingCache) {
  TempDir dir("replay");
  std::size_t executed = 0, hits = 0;
  (void)run_grid(2, dir.path.string(), &executed, &hits);  // warm the cache
  clear_run_log();

  SweepOptions opts;
  opts.jobs = 1;
  opts.cache_dir = dir.path.string();
  opts.base_seed = 42;
  opts.replay_point = 2;
  SweepEngine engine(test_sim_factory(), opts);
  const auto grid = sample_grid();
  for (const WorkloadConfig& w : grid) engine.submit(w);
  engine.drain();

  EXPECT_EQ(engine.executed_points(), 1u)
      << "replay must re-execute despite a warm cache";
  EXPECT_EQ(engine.cache_hits(), 0u);
  EXPECT_EQ(engine.outcome(0).status, PointStatus::kSkipped);
  ASSERT_NE(engine.result_or_null(2), nullptr);

  // The replayed result equals the original pooled one bit-exactly.
  SimBackend reference(sim::preset_by_name("test"), kFastSim,
                       sweep_point_seed(42, 2));
  std::vector<RecordedRun> local;
  reference.set_run_recorder(&local);
  const MeasuredRun expect = reference.run(grid[2]);
  EXPECT_EQ(serialize_measured_run(*engine.result_or_null(2), "k"),
            serialize_measured_run(expect, "k"));
  clear_run_log();
}

}  // namespace
}  // namespace am::bench
