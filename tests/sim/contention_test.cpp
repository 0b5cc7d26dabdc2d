// Emergent contention phenomena: the behaviours the paper measures must
// fall out of the machine's hand-off process rather than being hard-coded.
#include <gtest/gtest.h>

#include "bench_core/sim_backend.hpp"
#include "locks/lock_programs.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

bench::MeasuredRun run_high_contention(MachineConfig cfg, Primitive prim,
                                       CoreId n, Cycles work = 0,
                                       std::uint64_t seed = 1) {
  Machine m(std::move(cfg), seed);
  HighContentionProgram prog(prim, work);
  return bench::to_measured_run(m.run(prog, n, 30'000, 250'000), "");
}

TEST(CasEmergence, SingleShotCasSuccessRateIsOneOverN) {
  // Deterministic FIFO rotation: exactly one success per full rotation.
  for (CoreId n : {2u, 4u, 8u}) {
    const bench::MeasuredRun st =
        run_high_contention(test_machine(8), Primitive::kCas, n);
    EXPECT_NEAR(st.success_rate(), 1.0 / n, 0.02)
        << "threads=" << n;
  }
}

TEST(CasEmergence, CasLoopNeedsNAcquisitionsPerOp) {
  for (CoreId n : {2u, 4u, 8u}) {
    const bench::MeasuredRun st =
        run_high_contention(test_machine(8), Primitive::kCasLoop, n);
    EXPECT_NEAR(st.attempts_per_op(), static_cast<double>(n), 0.25)
        << "threads=" << n;
  }
}

TEST(CasEmergence, FaaBeatsCasLoopByFactorN) {
  const CoreId n = 8;
  const bench::MeasuredRun faa =
      run_high_contention(test_machine(8), Primitive::kFaa, n);
  const bench::MeasuredRun loop =
      run_high_contention(test_machine(8), Primitive::kCasLoop, n);
  const double ratio = faa.throughput_ops_per_kcycle() /
                       loop.throughput_ops_per_kcycle();
  // Exec costs are equal on the test machine, so the ratio is ~n.
  EXPECT_NEAR(ratio, static_cast<double>(n), 1.0);
}

TEST(CasEmergence, CasLoopUnderFifoIsWinnerTakesAll) {
  const bench::MeasuredRun st =
      run_high_contention(test_machine(4), Primitive::kCasLoop, 4);
  // Deterministic rotation: one core completes (almost) everything.
  EXPECT_LT(st.jain_fairness(), 0.3);
  std::uint64_t max_ops = 0;
  for (const auto& t : st.threads) max_ops = std::max(max_ops, t.ops);
  EXPECT_GT(static_cast<double>(max_ops),
            0.9 * static_cast<double>(st.total_ops()));
}

TEST(Fairness, FifoIsFairForFaa) {
  const bench::MeasuredRun st = run_high_contention(test_machine(8), Primitive::kFaa, 8);
  EXPECT_GT(st.jain_fairness(), 0.999);
  EXPECT_GT(st.min_max_ratio(), 0.98);
}

TEST(Fairness, ProximityBiasDegradesFairnessOnTwoSockets) {
  MachineConfig biased = xeon_e5_2x18();
  MachineConfig fair = xeon_e5_2x18();
  fair.arbitration = Arbitration::kFifo;
  const bench::MeasuredRun b = run_high_contention(biased, Primitive::kFaa, 36);
  const bench::MeasuredRun f = run_high_contention(fair, Primitive::kFaa, 36);
  EXPECT_GT(f.jain_fairness(), 0.99);
  EXPECT_LT(b.jain_fairness(), f.jain_fairness() - 0.02);
}

TEST(Fairness, ProximityBiasFavoursOwnersSocketNeighbours) {
  // With the line mostly owned inside one socket, same-socket cores should
  // complete more ops than cross-socket cores on average.
  const bench::MeasuredRun st =
      run_high_contention(xeon_e5_2x18(), Primitive::kFaa, 36, 0, 3);
  double socket0 = 0.0;
  double socket1 = 0.0;
  for (std::size_t c = 0; c < st.threads.size(); ++c) {
    (c < 18 ? socket0 : socket1) += static_cast<double>(st.threads[c].ops);
  }
  // Both sockets participate (no starvation) ...
  EXPECT_GT(socket0, 0.0);
  EXPECT_GT(socket1, 0.0);
}

TEST(Regimes, ThroughputTransitionsAtCrossoverWork) {
  // Scan work: below w* throughput is flat; above it drops as 1/(w+h).
  const CoreId n = 4;
  const MachineConfig cfg = test_machine(4);
  const double hold = 100.0 + 4.0 + cfg.exec_cost_of(Primitive::kFaa);
  const double wstar = (n - 1) * hold;

  const bench::MeasuredRun low_w =
      run_high_contention(cfg, Primitive::kFaa, n, 0);
  const bench::MeasuredRun mid_w = run_high_contention(
      cfg, Primitive::kFaa, n, static_cast<Cycles>(wstar * 0.5));
  const bench::MeasuredRun high_w = run_high_contention(
      cfg, Primitive::kFaa, n, static_cast<Cycles>(wstar * 4.0));

  // Saturated regime: work is hidden behind the queue, throughput flat.
  EXPECT_NEAR(mid_w.throughput_ops_per_kcycle(),
              low_w.throughput_ops_per_kcycle(),
              low_w.throughput_ops_per_kcycle() * 0.05);
  // Past the crossover, throughput is work-bound and clearly lower.
  const double expected =
      n * 1000.0 / (wstar * 4.0 + hold);
  EXPECT_NEAR(high_w.throughput_ops_per_kcycle(), expected, expected * 0.1);
}

TEST(Regimes, LatencyHiddenByWorkInLowContention) {
  const CoreId n = 4;
  const MachineConfig cfg = test_machine(4);
  const double hold = 100.0 + 4.0 + cfg.exec_cost_of(Primitive::kFaa);
  const bench::MeasuredRun st = run_high_contention(
      cfg, Primitive::kFaa, n, static_cast<Cycles>((n - 1) * hold * 4.0));
  // Requests rarely queue: latency ~ one transfer + exec.
  EXPECT_LT(st.mean_latency_cycles(), hold * 1.5);
}

TEST(MixedReadWrite, WritersInvalidateReaders) {
  Machine m(test_machine(8));
  MixedReadWriteProgram prog(Primitive::kFaa, 0.2, 0);
  const bench::MeasuredRun st =
      bench::to_measured_run(m.run(prog, 8, 20'000, 150'000), "");
  // Loads dominate ops; every write forces re-fetches, so transfers and
  // invalidations are both well above zero.
  EXPECT_GT(st.invalidations, 100u);
  EXPECT_GT(st.transfers[static_cast<int>(Supply::kNear)], 100u);
  EXPECT_GT(st.total_ops(), 0u);
}

TEST(Zipf, SkewConcentratesContention) {
  auto run_zipf = [](double s) {
    Machine m(test_machine(8), 11);
    ZipfSharingProgram prog(Primitive::kFaa, 0, 256, s);
    return bench::to_measured_run(m.run(prog, 8, 20'000, 150'000), "");
  };
  const bench::MeasuredRun uniform = run_zipf(0.0);
  const bench::MeasuredRun skewed = run_zipf(1.2);
  // Skew funnels ops onto few hot lines: more waiting, lower throughput.
  EXPECT_LT(skewed.throughput_ops_per_kcycle(),
            uniform.throughput_ops_per_kcycle());
}

TEST(Knl, MeshDistanceShowsInLatency) {
  MachineConfig cfg = knl_64();
  Machine m(cfg);
  // Corner-to-corner transfer (core 0 to core 63 = 14 hops).
  m.prime_line(7, Mesi::kModified, 63, 0);
  const Cycles far_lat = m.measure_single_op(0, Primitive::kFaa, 7);
  m.prime_line(7, Mesi::kModified, 1, 0);
  const Cycles near_lat = m.measure_single_op(0, Primitive::kFaa, 7);
  EXPECT_GT(far_lat, near_lat + 13 * cfg.mesh_per_hop - 1);
}

}  // namespace
}  // namespace am::sim
