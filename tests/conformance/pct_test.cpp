// Tests of the PCT scheduler: schedule derivation is a pure function of
// (seed, depth, expected_steps); picks follow the priority permutation;
// change points demote below everything; and a PCT-steered machine run is
// deterministic and still passes the full SC value oracle (PCT perturbs
// only *which* legal interleaving runs, never the semantics).
#include "conformance/pct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "conformance/differ.hpp"
#include "sim/config.hpp"

namespace am::conformance {
namespace {

TEST(PctScheduler, PrioritiesAreDistinctAndAboveDemotionBand) {
  PctConfig cfg;
  cfg.seed = 42;
  cfg.depth = 4;
  PctScheduler pct(8, cfg);
  const auto& prio = pct.priorities();
  ASSERT_EQ(prio.size(), 8u);
  std::set<std::uint32_t> distinct(prio.begin(), prio.end());
  EXPECT_EQ(distinct.size(), 8u);
  // Initial priorities all sit at depth..depth+n-1, strictly above every
  // demotion target (depth-1 .. 1).
  EXPECT_EQ(*std::min_element(prio.begin(), prio.end()), cfg.depth);
  EXPECT_EQ(*std::max_element(prio.begin(), prio.end()), cfg.depth + 7);
}

TEST(PctScheduler, SameSeedSameSchedule) {
  PctConfig cfg;
  cfg.seed = 7;
  PctScheduler a(6, cfg);
  PctScheduler b(6, cfg);
  EXPECT_EQ(a.priorities(), b.priorities());
  const std::vector<sim::CoreId> waiters = {3, 0, 5, 2};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.pick(0, waiters), b.pick(0, waiters));
    a.on_step(static_cast<sim::CoreId>(i % 6));
    b.on_step(static_cast<sim::CoreId>(i % 6));
  }
}

TEST(PctScheduler, DifferentSeedsExploreDifferentPermutations) {
  PctConfig a_cfg;
  a_cfg.seed = 1;
  bool differs = false;
  PctScheduler a(8, a_cfg);
  for (std::uint64_t s = 2; s <= 10 && !differs; ++s) {
    PctConfig b_cfg;
    b_cfg.seed = s;
    PctScheduler b(8, b_cfg);
    differs = a.priorities() != b.priorities();
  }
  EXPECT_TRUE(differs);
}

TEST(PctScheduler, PickReturnsTheHighestPriorityWaiter) {
  PctConfig cfg;
  cfg.seed = 5;
  PctScheduler pct(4, cfg);
  const auto& prio = pct.priorities();
  const std::vector<sim::CoreId> waiters = {2, 0, 3, 1};
  const std::size_t pick = pct.pick(0, waiters);
  ASSERT_LT(pick, waiters.size());
  for (const sim::CoreId c : waiters) {
    EXPECT_GE(prio[waiters[pick]], prio[c]);
  }
}

TEST(PctScheduler, ChangePointDemotesBelowEveryone) {
  PctConfig cfg;
  cfg.seed = 9;
  cfg.depth = 3;           // two change points
  cfg.expected_steps = 4;  // force them to land within a few steps
  PctScheduler pct(4, cfg);
  const std::vector<std::uint32_t> initial = pct.priorities();
  for (int i = 0; i < 8; ++i) pct.on_step(0);  // core 0 keeps retiring
  ASSERT_EQ(pct.change_points_applied(), 2u);
  // Core 0 absorbed the last demotion it crossed; its priority now sits in
  // the demotion band, strictly below every initial priority.
  EXPECT_LT(pct.priorities()[0], cfg.depth);
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_EQ(pct.priorities()[c], initial[c]);
    EXPECT_GT(pct.priorities()[c], pct.priorities()[0]);
  }
  // Demoted core loses every arbitration against an undemoted one.
  const std::vector<sim::CoreId> waiters = {0, 2};
  EXPECT_EQ(pct.pick(0, waiters), 1u);
}

TEST(PctScheduler, DepthOneMeansNoChangePoints) {
  PctConfig cfg;
  cfg.seed = 3;
  cfg.depth = 1;
  PctScheduler pct(4, cfg);
  for (int i = 0; i < 100; ++i) pct.on_step(static_cast<sim::CoreId>(i % 4));
  EXPECT_EQ(pct.change_points_applied(), 0u);
  EXPECT_EQ(pct.steps(), 100u);
}

TEST(PctScheduler, SteeredRunsStillPassTheScOracle) {
  // PCT only resolves arbitration races; under SC the full value-level
  // oracle must keep passing no matter how adversarial the steering.
  GenConfig gen;
  gen.cores = 4;
  gen.ops_per_core = 32;
  gen.pattern = SharingPattern::kSingleLine;  // maximum arbitration pressure
  ScheduleSpec sched;
  sched.use_pct = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const FuzzCase c =
        fuzz_one(seed, gen, sim::test_machine(4), /*do_shrink=*/true, sched);
    EXPECT_TRUE(c.ok) << c.describe("test", gen);
  }
}

TEST(PctScheduler, SteeredRunsAreDeterministic) {
  GenConfig gen;
  gen.cores = 4;
  gen.ops_per_core = 24;
  const GeneratedProgram program = generate(11, gen);
  ScheduleSpec sched;
  sched.use_pct = true;
  sched.seed = 99;
  const RunOutcome a = run_program(sim::test_machine(4), program, 11, sched);
  const RunOutcome b = run_program(sim::test_machine(4), program, 11, sched);
  EXPECT_EQ(a.report.ok, b.report.ok);
  EXPECT_EQ(a.stats.measured_cycles, b.stats.measured_cycles);
  ASSERT_EQ(a.stats.threads.size(), b.stats.threads.size());
  for (std::size_t c = 0; c < a.stats.threads.size(); ++c) {
    EXPECT_EQ(a.stats.threads[c].ops, b.stats.threads[c].ops);
    EXPECT_EQ(a.stats.threads[c].exec_cycles, b.stats.threads[c].exec_cycles);
    EXPECT_EQ(a.stats.threads[c].wait_cycles, b.stats.threads[c].wait_cycles);
  }
}

TEST(PctScheduler, ReplayLineCarriesScheduleAndVersions) {
  GenConfig gen;
  sim::MachineConfig cfg = sim::xeon_e5_2x18();
  cfg.fault = sim::FaultInjection::kLostUpgradeWrite;
  ScheduleSpec sched;
  sched.use_pct = true;
  sched.depth = 5;
  const FuzzCase c = fuzz_one(1, gen, cfg, /*do_shrink=*/false, sched);
  ASSERT_FALSE(c.ok);
  const std::string line = c.describe("xeon", gen);
  EXPECT_NE(line.find("--sched=pct"), std::string::npos) << line;
  EXPECT_NE(line.find("--sched-seed=1"), std::string::npos) << line;
  EXPECT_NE(line.find("--pct-depth=5"), std::string::npos) << line;
  EXPECT_NE(line.find("--gen-version=1"), std::string::npos) << line;
  EXPECT_NE(line.find("--sched-version=1"), std::string::npos) << line;
}

}  // namespace
}  // namespace am::conformance
