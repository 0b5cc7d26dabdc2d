// Property sweep over the machine: structural invariants that must hold for
// every (primitive, thread count, arbitration policy) combination.
#include <gtest/gtest.h>

#include <tuple>

#include "bench_core/sim_backend.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

using Case = std::tuple<Primitive, CoreId, Arbitration>;

class MachineInvariants : public ::testing::TestWithParam<Case> {};

TEST_P(MachineInvariants, HoldOnHighContentionRuns) {
  const auto [prim, threads, arb] = GetParam();
  MachineConfig cfg = test_machine(16);
  cfg.arbitration = arb;
  Machine m(cfg, 99);
  HighContentionProgram prog(prim, 0);
  // warmup == 0 so the line value can be compared against window counts.
  const RunStats st = m.run(prog, threads, 0, 120'000);
  const bench::MeasuredRun run = bench::to_measured_run(st, "");

  // 1. Progress.
  ASSERT_GT(run.total_ops(), 0u);
  EXPECT_GT(run.throughput_ops_per_kcycle(), 0.0);

  // 2. Count algebra per thread.
  for (const auto& t : st.threads) {
    EXPECT_EQ(t.ops, t.successes + t.failures);
    EXPECT_GE(t.attempts, t.ops);
    if (t.ops > 0) {
      EXPECT_GE(t.latency_min, cfg.l1_hit + cfg.exec_cost_of(prim));
      EXPECT_LE(t.latency_min, t.latency_max);
      EXPECT_GE(t.mean_latency(), static_cast<double>(t.latency_min));
      EXPECT_LE(t.mean_latency(), static_cast<double>(t.latency_max));
    }
    std::uint64_t per_prim = 0;
    for (auto v : t.ops_by_prim) per_prim += v;
    EXPECT_EQ(per_prim, t.ops);
  }

  // 3. Value conservation for increment-semantics primitives.
  if (prim == Primitive::kFaa || prim == Primitive::kCas ||
      prim == Primitive::kCasLoop) {
    // Every success added exactly 1; stragglers after the window add a few.
    EXPECT_GE(m.line_value(0), run.total_successes());
    EXPECT_LE(m.line_value(0), run.total_successes() + threads + 1);
  }

  // 4. Fairness indices in range.
  EXPECT_GT(run.jain_fairness(), 0.0);
  EXPECT_LE(run.jain_fairness(), 1.0 + 1e-9);
  EXPECT_GE(run.min_max_ratio(), 0.0);
  EXPECT_LE(run.min_max_ratio(), 1.0 + 1e-9);

  // 5. Energy is positive and decomposes.
  const auto& e = st.energy;
  EXPECT_GE(e.core_active_j, 0.0);
  EXPECT_GE(e.core_spin_j, 0.0);
  EXPECT_GE(e.transfer_j, 0.0);
  EXPECT_NEAR(e.total_j(),
              e.core_active_j + e.core_spin_j + e.uncore_static_j +
                  e.transfer_j + e.directory_j + e.memory_j,
              1e-12);

  // 6. Transfers happen exactly when ownership must move.
  const auto moved = st.transfers[static_cast<int>(Supply::kNear)] +
                     st.transfers[static_cast<int>(Supply::kFar)];
  if (needs_exclusive(prim) && threads >= 2) {
    EXPECT_GT(moved, 0u);
  }
  if (prim == Primitive::kLoad) {
    // Readers share: at most the warm-up fetches move data.
    EXPECT_LE(moved, static_cast<std::uint64_t>(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineInvariants,
    ::testing::Combine(::testing::Values(Primitive::kLoad, Primitive::kStore,
                                         Primitive::kSwap, Primitive::kTas,
                                         Primitive::kFaa, Primitive::kCas,
                                         Primitive::kCasLoop),
                       ::testing::Values<CoreId>(1, 2, 5, 16),
                       ::testing::Values(Arbitration::kFifo,
                                         Arbitration::kProximityBiased)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) == Arbitration::kFifo ? "fifo"
                                                            : "biased");
    });

class WorkMonotonicity : public ::testing::TestWithParam<Primitive> {};

TEST_P(WorkMonotonicity, ThroughputNonIncreasingInWork) {
  const Primitive prim = GetParam();
  MachineConfig cfg = test_machine(8);
  double prev = 1e300;
  for (Cycles w : {0u, 200u, 1000u, 4000u, 16000u}) {
    Machine m(cfg, 5);
    HighContentionProgram prog(prim, w);
    const bench::MeasuredRun st =
        bench::to_measured_run(m.run(prog, 8, 20'000, 150'000), "");
    const double x = st.throughput_ops_per_kcycle();
    EXPECT_LE(x, prev * 1.02) << "w=" << w;  // 2% tolerance for granularity
    prev = x;
  }
}

// CASLOOP is deliberately absent: its *completed-op* throughput is
// non-monotone in w — backoff helps (the A1.2 ablation's whole point).
INSTANTIATE_TEST_SUITE_P(AllExclusive, WorkMonotonicity,
                         ::testing::Values(Primitive::kStore, Primitive::kSwap,
                                           Primitive::kFaa, Primitive::kTas,
                                           Primitive::kCas),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(LatencyMonotonicity, MeanLatencyNonDecreasingInThreads) {
  double prev = 0.0;
  for (CoreId n : {1u, 2u, 4u, 8u, 16u}) {
    Machine m(test_machine(16), 7);
    HighContentionProgram prog(Primitive::kFaa, 0);
    const bench::MeasuredRun st =
        bench::to_measured_run(m.run(prog, n, 20'000, 150'000), "");
    EXPECT_GE(st.mean_latency_cycles(), prev * 0.99) << "n=" << n;
    prev = st.mean_latency_cycles();
  }
}

TEST(SeedSensitivity, BiasedArbitrationVariesButBounded) {
  // Different seeds must give different grant orders but near-identical
  // aggregate throughput (the hand-off cost mixture is what matters).
  double x1 = 0.0;
  double x2 = 0.0;
  std::uint64_t ops1 = 0;
  std::uint64_t ops2 = 0;
  {
    Machine m(xeon_e5_2x18(), 1);
    HighContentionProgram prog(Primitive::kFaa, 0);
    const bench::MeasuredRun st =
        bench::to_measured_run(m.run(prog, 24, 20'000, 150'000), "");
    x1 = st.throughput_ops_per_kcycle();
    ops1 = st.threads[0].ops;
  }
  {
    Machine m(xeon_e5_2x18(), 2);
    HighContentionProgram prog(Primitive::kFaa, 0);
    const bench::MeasuredRun st =
        bench::to_measured_run(m.run(prog, 24, 20'000, 150'000), "");
    x2 = st.throughput_ops_per_kcycle();
    ops2 = st.threads[0].ops;
  }
  EXPECT_NEAR(x1, x2, x1 * 0.05);
  EXPECT_NE(ops1, ops2);  // per-core shares differ with the seed
}

}  // namespace
}  // namespace am::sim
