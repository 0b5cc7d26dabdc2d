#include <gtest/gtest.h>

#include "bench_core/backend.hpp"
#include "bench_core/sim_backend.hpp"
#include "sim/config.hpp"

namespace am::bench {
namespace {

TEST(SimBackend, RunsAllWorkloadModes) {
  SimBackend backend(sim::test_machine(8));
  for (WorkloadMode mode :
       {WorkloadMode::kHighContention, WorkloadMode::kLowContention,
        WorkloadMode::kZipf, WorkloadMode::kMixedReadWrite}) {
    WorkloadConfig w;
    w.mode = mode;
    w.prim = Primitive::kFaa;
    w.threads = 4;
    const MeasuredRun r = backend.run(w);
    EXPECT_GT(r.total_ops(), 0u) << to_string(mode);
    EXPECT_EQ(r.backend, "sim");
    EXPECT_EQ(r.threads.size(), 4u);
    EXPECT_TRUE(r.energy_valid);
  }
}

TEST(SimBackend, DeterministicGivenSeed) {
  SimBackend backend(sim::xeon_e5_2x18());
  WorkloadConfig w;
  w.mode = WorkloadMode::kHighContention;
  w.prim = Primitive::kCas;
  w.threads = 12;
  w.seed = 5;
  const MeasuredRun a = backend.run(w);
  const MeasuredRun b = backend.run(w);
  EXPECT_EQ(a.total_ops(), b.total_ops());
  EXPECT_EQ(a.total_successes(), b.total_successes());
}

TEST(SimBackend, SeedChangesStochasticRuns) {
  SimBackend backend(sim::xeon_e5_2x18());
  WorkloadConfig w;
  w.mode = WorkloadMode::kZipf;
  w.prim = Primitive::kFaa;
  w.threads = 8;
  w.seed = 1;
  const MeasuredRun a = backend.run(w);
  w.seed = 2;
  const MeasuredRun b = backend.run(w);
  EXPECT_NE(a.total_ops(), b.total_ops());
}

TEST(SimBackend, RejectsOversizedWorkload) {
  SimBackend backend(sim::test_machine(2));
  WorkloadConfig w;
  w.threads = 3;
  EXPECT_THROW(backend.run(w), std::invalid_argument);
}

TEST(SimBackend, ReportsMachineMetadata) {
  SimBackend backend(sim::knl_64());
  EXPECT_EQ(backend.name(), "sim");
  EXPECT_EQ(backend.machine_name(), "knl-64");
  EXPECT_EQ(backend.max_threads(), 64u);
  EXPECT_DOUBLE_EQ(backend.freq_ghz(), 1.4);
}

// A run with line profiling or epochs carries more than one without, so a
// cache entry written by one must never answer the other.
TEST(SimBackend, ObservabilitySettingsJoinTheCacheIdentity) {
  SimBackend plain(sim::test_machine(4));
  EXPECT_EQ(plain.cache_identity(),
            sim_backend_cache_identity(plain.machine_config(), plain.options()));
  SimBackend profiled(sim::test_machine(4));
  profiled.set_line_profiling(true);
  SimBackend sampled(sim::test_machine(4));
  sampled.set_epoch_cycles(500);
  EXPECT_NE(profiled.cache_identity(), plain.cache_identity());
  EXPECT_NE(sampled.cache_identity(), plain.cache_identity());
  EXPECT_NE(sampled.cache_identity(), profiled.cache_identity());
}

TEST(MakeBackend, ParsesSpecs) {
  EXPECT_EQ(make_backend("sim:knl")->machine_name(), "knl-64");
  EXPECT_EQ(make_backend("sim:xeon")->machine_name(), "xeon-e5-2x18");
  EXPECT_EQ(make_backend("sim")->machine_name(), "xeon-e5-2x18");
  EXPECT_EQ(make_backend("hw")->name(), "hw");
  const auto backend = make_backend("auto");
  EXPECT_TRUE(backend->name() == "hw" || backend->name() == "sim");
}

}  // namespace
}  // namespace am::bench
