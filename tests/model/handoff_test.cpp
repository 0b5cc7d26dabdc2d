#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "common/sha256.hpp"
#include "common/stats.hpp"
#include "model/handoff.hpp"
#include "sim/config.hpp"

namespace am::model {
namespace {

TEST(RoundRobin, UniformMachineMeanIsTheLatency) {
  const ModelParams p = ModelParams::from_machine(sim::test_machine(4, 100));
  const HandoffEstimate e = round_robin_handoff(p, 4);
  EXPECT_DOUBLE_EQ(e.mean_transfer_cycles, 100.0);
  EXPECT_DOUBLE_EQ(e.far_fraction, 0.0);
  ASSERT_EQ(e.grant_shares.size(), 4u);
  EXPECT_DOUBLE_EQ(e.grant_shares[0], 0.25);
}

TEST(RoundRobin, SingleCoreNeverTransfers) {
  const ModelParams p = ModelParams::from_machine(sim::test_machine(4, 100));
  const HandoffEstimate e = round_robin_handoff(p, 1);
  EXPECT_DOUBLE_EQ(e.mean_transfer_cycles, 0.0);
}

TEST(RoundRobin, TwoSocketMixture) {
  // Compact order on two sockets: the rotation crosses the socket boundary
  // exactly twice per cycle once both sockets participate.
  sim::MachineConfig cfg = sim::xeon_e5_2x18();
  cfg.arbitration = sim::Arbitration::kFifo;
  const ModelParams p = ModelParams::from_machine(cfg);

  const HandoffEstimate within = round_robin_handoff(p, 18);
  EXPECT_DOUBLE_EQ(within.mean_transfer_cycles, 70.0);
  EXPECT_DOUBLE_EQ(within.far_fraction, 0.0);

  const HandoffEstimate both = round_robin_handoff(p, 36);
  EXPECT_DOUBLE_EQ(both.far_fraction, 2.0 / 36.0);
  EXPECT_DOUBLE_EQ(both.mean_transfer_cycles,
                   (34.0 * 70.0 + 2.0 * 180.0) / 36.0);
}

TEST(TokenPassing, FifoMatchesClosedForm) {
  sim::MachineConfig cfg = sim::xeon_e5_2x18();
  cfg.arbitration = sim::Arbitration::kFifo;
  const ModelParams p = ModelParams::from_machine(cfg);
  const HandoffEstimate closed = round_robin_handoff(p, 24);
  const HandoffEstimate sim = simulate_handoff(p, 24, 25.0, 24 * 500);
  EXPECT_NEAR(sim.mean_transfer_cycles, closed.mean_transfer_cycles, 1.0);
  EXPECT_NEAR(jain_fairness(sim.grant_shares), 1.0, 0.001);
}

TEST(TokenPassing, ProximityBiasKeepsLineNearOwner) {
  const ModelParams p = ModelParams::from_machine(sim::xeon_e5_2x18());
  const HandoffEstimate e = simulate_handoff(p, 36, 25.0, 36 * 500);
  // Biased arbitration crosses sockets less often than round robin would
  // given random placement, and shares are visibly uneven.
  EXPECT_LT(jain_fairness(e.grant_shares), 0.999);
  EXPECT_GT(e.mean_transfer_cycles, 0.0);
}

TEST(TokenPassing, SharesSumToOne) {
  const ModelParams p = ModelParams::from_machine(sim::knl_64());
  const HandoffEstimate e = simulate_handoff(p, 32, 30.0, 32 * 400);
  double sum = 0.0;
  for (double s : e.grant_shares) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TokenPassing, RejectsBadCoreCount) {
  const ModelParams p = ModelParams::from_machine(sim::test_machine(4));
  EXPECT_THROW(simulate_handoff(p, 0, 10.0), std::invalid_argument);
  EXPECT_THROW(simulate_handoff(p, 5, 10.0), std::invalid_argument);
}

void append_bits(std::string& out, double v) {
  char buf[20];
  std::snprintf(
      buf, sizeof buf, "%016llx ",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  out += buf;
}

// Every output of the walk, as IEEE bit patterns, for every N on both
// proximity-biased presets at the model's own hold (FAA) and one other. Any
// rewrite of the walk must keep this digest: the model's T(N), fairness,
// CAS success and energy all derive from these numbers.
TEST(TokenPassing, WalkOutputsArePinnedBitForBit) {
  std::string bytes;
  for (const char* name : {"xeon", "knl"}) {
    const ModelParams p = ModelParams::from_machine(sim::preset_by_name(name));
    for (const double hold : {p.local_op_cycles(Primitive::kFaa), 100.0}) {
      for (std::uint32_t n = 1; n <= p.cores; ++n) {
        const HandoffEstimate e = simulate_handoff(p, n, hold);
        bytes += std::string(name) + " " + std::to_string(n) + " ";
        append_bits(bytes, hold);
        append_bits(bytes, e.mean_transfer_cycles);
        append_bits(bytes, e.mean_hops);
        append_bits(bytes, e.far_fraction);
        for (const double s : e.grant_shares) append_bits(bytes, s);
        bytes += '\n';
      }
    }
  }
  EXPECT_EQ(sha256_hex(bytes),
            "7d49ef40a1a549d0087e74cf02fb8b7924cec4951f80880fa2aae3988dae9537");
}

TEST(Dispatch, EstimateUsesClosedFormForFifo) {
  sim::MachineConfig cfg = sim::test_machine(8, 50);
  const ModelParams p = ModelParams::from_machine(cfg);
  const HandoffEstimate e = estimate_handoff(p, 8, 20.0);
  EXPECT_DOUBLE_EQ(e.mean_transfer_cycles, 50.0);
}

}  // namespace
}  // namespace am::model
