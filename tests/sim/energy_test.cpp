// Energy accounting: structural properties the paper's energy figures rely
// on (energy per op rises with contention; spin energy dominates waiting).
#include <gtest/gtest.h>

#include "bench_core/sim_backend.hpp"
#include "sim/config.hpp"
#include "sim/energy_model.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

TEST(EnergyAccounting, UnitConversions) {
  EnergyParams p;
  p.freq_ghz = 1.0;  // 1 cycle == 1 ns
  p.core_active_watts = 2.0;
  EnergyAccounting acc(p);
  acc.add_active_cycles(1'000'000'000);  // 1 second at 1 GHz
  EXPECT_NEAR(acc.breakdown().core_active_j, 2.0, 1e-9);
}

TEST(EnergyAccounting, TransferPricing) {
  EnergyParams p;
  p.transfer_nj_base = 2.0;
  p.transfer_nj_per_hop = 1.0;
  p.cross_link_nj = 5.0;
  EnergyAccounting acc(p);
  acc.add_transfer(3, true);
  EXPECT_NEAR(acc.breakdown().transfer_j, (2.0 + 3.0 + 5.0) * 1e-9, 1e-15);
  acc.add_transfer(1, false);
  EXPECT_NEAR(acc.breakdown().transfer_j, (10.0 + 3.0) * 1e-9, 1e-15);
}

TEST(EnergyAccounting, PackageVsDramSplit) {
  EnergyParams p;
  EnergyAccounting acc(p);
  acc.add_memory_fetch();
  acc.add_directory_lookup();
  const EnergyBreakdown& e = acc.breakdown();
  EXPECT_NEAR(e.dram_j(), p.memory_nj * 1e-9, 1e-15);
  EXPECT_NEAR(e.package_j(), p.directory_nj * 1e-9, 1e-15);
  EXPECT_NEAR(e.total_j(), e.package_j() + e.dram_j(), 1e-15);
}

TEST(EnergyEmergent, EnergyPerOpGrowsWithContention) {
  double e2 = 0.0;
  double e16 = 0.0;
  for (auto [n, out] : {std::pair<CoreId, double*>{2, &e2}, {16, &e16}}) {
    Machine m(xeon_e5_2x18());
    HighContentionProgram prog(Primitive::kFaa, 0);
    const bench::MeasuredRun st =
        bench::to_measured_run(m.run(prog, n, 20'000, 200'000), "");
    *out = st.energy_per_op_nj();
  }
  // More threads spin longer per completed op: energy/op rises sharply.
  EXPECT_GT(e16, 3.0 * e2);
}

TEST(EnergyEmergent, PrivateLinesAreCheapest) {
  Machine shared(xeon_e5_2x18());
  HighContentionProgram hc(Primitive::kFaa, 0);
  const double e_shared =
      bench::to_measured_run(shared.run(hc, 8, 20'000, 200'000), "")
          .energy_per_op_nj();

  Machine priv(xeon_e5_2x18());
  LowContentionProgram lc(Primitive::kFaa, 0);
  const double e_priv =
      bench::to_measured_run(priv.run(lc, 8, 20'000, 200'000), "")
          .energy_per_op_nj();

  EXPECT_GT(e_shared, 5.0 * e_priv);
}

TEST(EnergyEmergent, SpinEnergyDominatesUnderSaturation) {
  Machine m(xeon_e5_2x18());
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats st = m.run(prog, 36, 20'000, 200'000);
  EXPECT_GT(st.energy.core_spin_j, st.energy.core_active_j);
}

}  // namespace
}  // namespace am::sim
