#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "model/advisor.hpp"
#include "model/bouncing_model.hpp"
#include "sim/config.hpp"

namespace am::model {
namespace {

BouncingModel test_model(sim::CoreId cores = 8) {
  return BouncingModel(ModelParams::from_machine(sim::test_machine(cores)));
}

TEST(Predict, SingleThreadIsLocalCost) {
  const BouncingModel m = test_model();
  const Prediction p = m.predict(Primitive::kFaa, 1, 0.0);
  const double c = m.params().local_op_cycles(Primitive::kFaa);
  EXPECT_DOUBLE_EQ(p.latency_cycles, c);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 1000.0 / c);
  EXPECT_EQ(p.regime, Regime::kLowContention);
}

TEST(Predict, SaturatedThroughputIsOneOverHold) {
  const BouncingModel m = test_model();
  const Prediction p = m.predict(Primitive::kFaa, 4, 0.0);
  // test machine: T=100, l1=4, exec=10 -> hold=114.
  EXPECT_DOUBLE_EQ(p.hold_cycles, 114.0);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 1000.0 / 114.0);
  EXPECT_EQ(p.regime, Regime::kHighContention);
  EXPECT_DOUBLE_EQ(p.latency_cycles, 4.0 * 114.0);
}

TEST(Predict, ThroughputPlateauAcrossN) {
  const BouncingModel m = test_model();
  const double x4 = m.predict(Primitive::kFaa, 4, 0.0).throughput_ops_per_kcycle;
  const double x8 = m.predict(Primitive::kFaa, 8, 0.0).throughput_ops_per_kcycle;
  EXPECT_DOUBLE_EQ(x4, x8);
}

TEST(Predict, LatencyLinearInN) {
  const BouncingModel m = test_model();
  const double l4 = m.predict(Primitive::kFaa, 4, 0.0).latency_cycles;
  const double l8 = m.predict(Primitive::kFaa, 8, 0.0).latency_cycles;
  EXPECT_DOUBLE_EQ(l8, 2.0 * l4);
}

TEST(Predict, CrossoverSeparatesRegimes) {
  const BouncingModel m = test_model();
  const double wstar = m.crossover_work(Primitive::kFaa, 4);
  EXPECT_DOUBLE_EQ(wstar, 3.0 * 114.0);
  EXPECT_EQ(m.predict(Primitive::kFaa, 4, wstar * 0.9).regime,
            Regime::kHighContention);
  EXPECT_EQ(m.predict(Primitive::kFaa, 4, wstar * 1.1).regime,
            Regime::kLowContention);
}

TEST(Predict, WorkBoundThroughputBeyondCrossover) {
  const BouncingModel m = test_model();
  const double w = 10'000.0;
  const Prediction p = m.predict(Primitive::kFaa, 4, w);
  EXPECT_NEAR(p.throughput_ops_per_kcycle, 4.0 * 1000.0 / (w + 114.0), 1e-9);
  EXPECT_DOUBLE_EQ(p.latency_cycles, 114.0);
}

TEST(Predict, LoadNeverBounces) {
  const BouncingModel m = test_model();
  const Prediction p = m.predict(Primitive::kLoad, 8, 0.0);
  EXPECT_EQ(p.regime, Regime::kLowContention);
  const double c = m.params().local_op_cycles(Primitive::kLoad);
  EXPECT_DOUBLE_EQ(p.latency_cycles, c);
  EXPECT_DOUBLE_EQ(p.throughput_ops_per_kcycle, 8.0 * 1000.0 / c);
}

TEST(Predict, CasSuccessDropsWithN) {
  const BouncingModel m = test_model();
  EXPECT_DOUBLE_EQ(m.predict(Primitive::kCas, 4, 0.0).success_rate, 0.25);
  EXPECT_DOUBLE_EQ(m.predict(Primitive::kCas, 8, 0.0).success_rate, 0.125);
}

TEST(Predict, CasLoopPaysNAcquisitions) {
  const BouncingModel m = test_model();
  const Prediction faa = m.predict(Primitive::kFaa, 8, 0.0);
  const Prediction loop = m.predict(Primitive::kCasLoop, 8, 0.0);
  EXPECT_DOUBLE_EQ(loop.attempts_per_op, 8.0);
  EXPECT_NEAR(faa.throughput_ops_per_kcycle /
                  loop.throughput_ops_per_kcycle,
              8.0, 1e-9);
  EXPECT_LT(loop.fairness_jain, 0.2);  // winner-takes-all under FIFO
}

TEST(Predict, FairnessFifoPerfectForFaa) {
  const BouncingModel m = test_model();
  EXPECT_DOUBLE_EQ(m.predict(Primitive::kFaa, 8, 0.0).fairness_jain, 1.0);
}

TEST(Predict, ProximityBiasLowersFairness) {
  const BouncingModel m(ModelParams::from_machine(sim::xeon_e5_2x18()));
  const Prediction p = m.predict(Primitive::kFaa, 36, 0.0);
  EXPECT_LT(p.fairness_jain, 0.999);
  EXPECT_GT(p.fairness_jain, 0.3);
}

TEST(Predict, EnergyPerOpGrowsWithN) {
  const BouncingModel m(ModelParams::from_machine(sim::xeon_e5_2x18()));
  const double e2 = m.predict(Primitive::kFaa, 2, 0.0).energy_per_op_nj;
  const double e32 = m.predict(Primitive::kFaa, 32, 0.0).energy_per_op_nj;
  EXPECT_GT(e32, 4.0 * e2);
}

TEST(PredictPrivate, ScalesLinearly) {
  const BouncingModel m = test_model();
  const Prediction p1 = m.predict_private(Primitive::kFaa, 1, 0.0);
  const Prediction p8 = m.predict_private(Primitive::kFaa, 8, 0.0);
  EXPECT_DOUBLE_EQ(p8.throughput_ops_per_kcycle,
                   8.0 * p1.throughput_ops_per_kcycle);
  EXPECT_DOUBLE_EQ(p8.latency_cycles, p1.latency_cycles);
}

TEST(SingleOpLatency, MatchesSupplyClasses) {
  const BouncingModel m = test_model();
  const double c = m.params().local_op_cycles(Primitive::kFaa);
  EXPECT_DOUBLE_EQ(m.single_op_latency(Primitive::kFaa, sim::Supply::kLocalHit, 0),
                   c);
  EXPECT_DOUBLE_EQ(m.single_op_latency(Primitive::kFaa, sim::Supply::kNear, 100),
                   100 + c);
  EXPECT_DOUBLE_EQ(
      m.single_op_latency(Primitive::kFaa, sim::Supply::kMemory, 0),
      m.params().memory_fill + c);
}

TEST(Regime, NamesForTables) {
  EXPECT_STREQ(to_string(Regime::kHighContention), "high-contention");
  EXPECT_STREQ(to_string(Regime::kLowContention), "low-contention");
}

// --- one model shared by many threads ---------------------------------------

std::string bits(double v) {
  char buf[20];
  std::snprintf(
      buf, sizeof buf, "%016llx ",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

std::string bits(const Prediction& p) {
  std::string out = std::string(to_string(p.prim)) + " " +
                    std::to_string(p.threads) + " " + to_string(p.regime) + " ";
  for (const double v :
       {p.work, p.crossover_work, p.mean_transfer_cycles, p.hold_cycles,
        p.throughput_ops_per_kcycle, p.throughput_mops, p.latency_cycles,
        p.success_rate, p.attempts_per_op, p.fairness_jain,
        p.energy_per_op_nj}) {
    out += bits(v);
  }
  return out;
}

std::string bits(const Advice& a) {
  std::string out = a.scenario + "|" + a.recommended + "|" + a.rationale + "|";
  for (const Option& o : a.options) {
    out += o.name + " " + bits(o.throughput_mops) + o.note + "|";
  }
  return out;
}

/// Every shared-line entry point that reads the hand-off memo, at every
/// thread count the machine has.
std::vector<std::function<std::string(const BouncingModel&)>> memo_calls(
    std::uint32_t cores) {
  std::vector<std::function<std::string(const BouncingModel&)>> calls;
  for (std::uint32_t n = 1; n <= cores; ++n) {
    for (const Primitive prim : {Primitive::kFaa, Primitive::kCas,
                                 Primitive::kCasLoop, Primitive::kLoad}) {
      for (const double work : {0.0, 2000.0}) {
        calls.push_back([=](const BouncingModel& m) {
          return bits(m.predict(prim, n, work));
        });
      }
    }
    calls.push_back([=](const BouncingModel& m) {
      return bits(m.predict_mixed(Primitive::kFaa, 0.1, n, 100.0));
    });
    calls.push_back([=](const BouncingModel& m) {
      return bits(m.predict_zipf(Primitive::kFaa, n, 100.0, 8, 0.99));
    });
    calls.push_back([=](const BouncingModel& m) {
      return bits(advise_counter(m, n, 100.0));
    });
    calls.push_back([=](const BouncingModel& m) {
      return bits(advise_lock(m, n, 120.0, 200.0));
    });
    calls.push_back([=](const BouncingModel& m) {
      return bits(recommended_backoff_cycles(m, n));
    });
  }
  return calls;
}

TEST(SharedModel, ConcurrentCallsMatchAFreshSingleThreadedModel) {
  for (const char* name : {"xeon", "knl"}) {
    const ModelParams params =
        ModelParams::from_machine(sim::preset_by_name(name));
    const auto calls = memo_calls(params.cores);
    std::vector<std::string> expected;
    {
      const BouncingModel fresh(params);
      for (const auto& call : calls) expected.push_back(call(fresh));
    }

    const BouncingModel shared(params);
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<std::string>> got(
        kThreads, std::vector<std::string>(calls.size()));
    std::latch start(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        // Odd threads call through their own copy, which shares the memo.
        const BouncingModel copy = shared;
        const BouncingModel& model = t % 2 == 0 ? shared : copy;
        std::vector<std::size_t> order(calls.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), std::mt19937(1234 + t));
        start.arrive_and_wait();  // every first touch races
        for (const std::size_t i : order) got[t][i] = calls[i](model);
      });
    }
    for (std::thread& th : pool) th.join();

    for (unsigned t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < calls.size(); ++i) {
        ASSERT_EQ(got[t][i], expected[i])
            << name << " thread " << t << " call " << i;
      }
    }
  }
}

TEST(SharedModel, CopiesAndMovesAgreeWithTheOriginal) {
  const BouncingModel original(ModelParams::from_machine(sim::knl_64()));
  BouncingModel copy = original;
  const std::string warm = bits(copy.predict(Primitive::kCas, 16, 0.0));
  EXPECT_EQ(bits(original.predict(Primitive::kCas, 16, 0.0)), warm);
  const BouncingModel moved = std::move(copy);
  EXPECT_EQ(bits(moved.predict(Primitive::kCas, 16, 0.0)), warm);
  const BouncingModel fresh(original.params());
  EXPECT_EQ(bits(moved.predict(Primitive::kCas, 32, 0.0)),
            bits(fresh.predict(Primitive::kCas, 32, 0.0)));
}

TEST(SharedModel, ThreadsBeyondTheMachineThrow) {
  const BouncingModel m = test_model(4);
  EXPECT_THROW(m.predict(Primitive::kFaa, 5, 0.0), std::invalid_argument);
  EXPECT_THROW(m.mean_transfer(5), std::invalid_argument);
  EXPECT_EQ(m.predict_private(Primitive::kFaa, 5, 0.0).threads, 5u);
}

}  // namespace
}  // namespace am::model
