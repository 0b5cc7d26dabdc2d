// Crash/resume integration test: a sweep SIGKILLed mid-run leaves every
// completed point published in its result cache (and never a torn entry,
// thanks to the atomic rename), and the rerun against the same cache
// re-executes only the unfinished points while producing a report
// byte-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_core/report.hpp"
#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "sim/config.hpp"

namespace am::bench {
namespace {

constexpr SimBackendOptions kFastSim{2'000, 10'000};
constexpr int kPoints = 10;

// A sim backend that dawdles before each run so the parent can SIGKILL the
// child mid-sweep. The delay never touches cache_identity() or the result,
// so slow (child) and fast (rerun) sweeps share cache keys and bytes.
class SlowSimBackend final : public ExecutionBackend {
 public:
  SlowSimBackend(std::uint64_t seed, int delay_ms)
      : inner_(sim::preset_by_name("test"), kFastSim, seed),
        delay_ms_(delay_ms) {}
  std::string name() const override { return inner_.name(); }
  std::string machine_name() const override { return inner_.machine_name(); }
  std::uint32_t max_threads() const override { return inner_.max_threads(); }
  double freq_ghz() const override { return inner_.freq_ghz(); }
  std::string cache_identity() const override {
    return inner_.cache_identity();
  }

 protected:
  MeasuredRun do_run(const WorkloadConfig& config) override {
    if (delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    // The outer run() records; the inner one must not double-record into
    // the global log, so give it a scratch recorder.
    std::vector<RecordedRun> scratch;
    inner_.set_run_recorder(&scratch);
    return inner_.run(config);
  }

 private:
  SimBackend inner_;
  int delay_ms_;
};

std::vector<WorkloadConfig> grid() {
  std::vector<WorkloadConfig> g;
  for (int i = 0; i < kPoints; ++i) {
    WorkloadConfig w;
    w.mode = WorkloadMode::kHighContention;
    w.prim = i % 2 == 0 ? Primitive::kFaa : Primitive::kCasLoop;
    w.threads = 2 + static_cast<std::uint32_t>(i % 3);
    w.work = static_cast<Cycles>(10 * i);
    g.push_back(w);
  }
  return g;
}

struct SweepCounts {
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
};

std::string run_sweep(const std::string& cache_dir, int delay_ms,
                      SweepCounts* counts = nullptr) {
  clear_run_log();
  SweepOptions opts;
  opts.jobs = 1;  // deterministic kill point: the cache fills in order
  opts.base_seed = 11;
  opts.cache_dir = cache_dir;
  SweepEngine engine(
      [delay_ms](std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        return std::make_unique<SlowSimBackend>(seed, delay_ms);
      },
      opts);
  for (const WorkloadConfig& w : grid()) engine.submit(w);
  engine.drain();
  if (counts != nullptr) {
    counts->executed = engine.executed_points();
    counts->cache_hits = engine.cache_hits();
  }

  ReportMeta meta;
  meta.bench = "resilience_test";
  meta.title = "kill-resume";
  meta.backend = "sim:test";
  meta.machine = "test";
  meta.command = "resilience_test";
  meta.wall_time_s = 0.0;
  std::ostringstream os;
  write_run_report(os, meta, nullptr, run_log());
  clear_run_log();
  return os.str();
}

/// Published cache entries; in-flight temp files are not counted.
std::size_t cache_entry_count(const std::filesystem::path& dir) {
  std::error_code ec;
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".json") ++n;
  }
  return n;
}

TEST(KillResume, RerunSkipsCachedPointsAndMatchesByteForByte) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("am_resilience_" +
                    std::to_string(static_cast<unsigned long>(::getpid())));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Uninterrupted baseline with its own cache.
  SweepCounts counts;
  const std::string baseline =
      run_sweep((dir / "baseline").string(), 0, &counts);
  ASSERT_EQ(counts.executed, static_cast<std::size_t>(kPoints));

  const std::filesystem::path killed_cache = dir / "killed";
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: same sweep, slowed so the parent can kill it mid-run. _exit on
    // the off chance it finishes — the rerun assertions stay valid either
    // way, though the poll below kills it long before.
    (void)run_sweep(killed_cache.string(), 150);
    ::_exit(0);
  }

  // Wait for ~half the sweep to land in the cache, then SIGKILL.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cache_entry_count(killed_cache) < kPoints / 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  const std::size_t landed = cache_entry_count(killed_cache);
  ASSERT_GE(landed, 1u) << "child never cached anything; cannot test resume";

  // Resume: only the unfinished points execute, and the report is
  // byte-identical to the uninterrupted baseline.
  const std::string resumed = run_sweep(killed_cache.string(), 0, &counts);
  EXPECT_GE(counts.cache_hits, 1u);
  EXPECT_EQ(counts.executed + counts.cache_hits,
            static_cast<std::size_t>(kPoints));
  EXPECT_EQ(counts.cache_hits, landed)
      << "a completed point was re-executed after the crash";
  EXPECT_EQ(resumed, baseline);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace am::bench
