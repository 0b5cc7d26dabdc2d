// Private-cache capacity and LRU eviction.
#include <gtest/gtest.h>

#include "bench_core/sim_backend.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

MachineConfig capped(std::uint32_t capacity) {
  MachineConfig cfg = test_machine(2, 100, 4, 200);
  cfg.cache_capacity_lines = capacity;
  return cfg;
}

TEST(Capacity, WorkingSetWithinCapacityStaysResident) {
  Machine m(capped(8));
  PrivateWalkProgram prog(Primitive::kFaa, 0, 8);
  const bench::MeasuredRun st =
      bench::to_measured_run(m.run(prog, 1, 10'000, 100'000), "");
  // After the first pass everything hits: ~no memory fetches in the window.
  EXPECT_LE(st.memory_fetches, 1u);
  EXPECT_EQ(st.evictions, 0u);
  const double per_op = 100'000.0 / static_cast<double>(st.total_ops());
  EXPECT_NEAR(per_op, 4.0 + 10.0, 0.5);  // l1 + exec
}

TEST(Capacity, WorkingSetBeyondCapacityMissesEveryAccess) {
  Machine m(capped(8));
  PrivateWalkProgram prog(Primitive::kFaa, 0, 9);  // one line too many
  const bench::MeasuredRun st =
      bench::to_measured_run(m.run(prog, 1, 10'000, 100'000), "");
  // Cyclic walk + LRU: every access evicts the line needed furthest in the
  // future... which for LRU on a cyclic pattern means every access misses.
  EXPECT_NEAR(static_cast<double>(st.memory_fetches),
              static_cast<double>(st.total_ops()),
              static_cast<double>(st.total_ops()) * 0.05);
  EXPECT_GT(st.evictions, 100u);
  const double per_op = 100'000.0 / static_cast<double>(st.total_ops());
  EXPECT_NEAR(per_op, 200.0 + 4.0 + 10.0, 2.0);  // memory + l1 + exec
}

TEST(Capacity, EvictionCountsOnlyInWindow) {
  Machine m(capped(4));
  PrivateWalkProgram prog(Primitive::kFaa, 0, 16);
  const RunStats warm_only = m.run(prog, 1, 100'000, 0);
  EXPECT_EQ(warm_only.evictions, 0u);  // zero-length window
}

TEST(Capacity, PerCoreCachesAreIndependent) {
  Machine m(capped(8));
  PrivateWalkProgram prog(Primitive::kFaa, 0, 8);
  const RunStats st = m.run(prog, 2, 10'000, 100'000);
  // Both cores' 8-line sets fit their own caches.
  EXPECT_LE(st.memory_fetches, 2u);
  EXPECT_NEAR(static_cast<double>(st.threads[0].ops),
              static_cast<double>(st.threads[1].ops), 2.0);
}

TEST(Capacity, SharedLineSurvivesBouncingWithTinyCache) {
  // Contended workloads keep working even with a 1-line cache: the hot
  // line is always the most recently used.
  MachineConfig cfg = capped(1);
  Machine m(cfg);
  HighContentionProgram prog(Primitive::kFaa, 0);
  const bench::MeasuredRun st =
      bench::to_measured_run(m.run(prog, 2, 10'000, 100'000), "");
  EXPECT_GT(st.total_ops(), 100u);
  // All increments (warmup included) landed on the line despite evictions.
  EXPECT_GE(m.line_value(0), st.total_ops());
}

TEST(Capacity, ZeroCapacityIsClampedToOne) {
  MachineConfig cfg = capped(0);
  Machine m(cfg);
  HighContentionProgram prog(Primitive::kFaa, 0);
  const bench::MeasuredRun st =
      bench::to_measured_run(m.run(prog, 1, 0, 50'000), "");
  EXPECT_GT(st.total_ops(), 100u);
}

}  // namespace
}  // namespace am::sim
