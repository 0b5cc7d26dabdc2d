// Randomized MESI invariant checking.
//
// Drives both studied presets with randomized programs while a trace sink
// re-verifies the protocol invariants after *every* emitted step (not just
// the per-grant paranoid check): at most one E/M owner per line, Shared
// copies exclude any owner, sharer lists are duplicate-free sets of valid
// cores. A second, machine-external pass cross-checks the directory view
// (snapshot_line) against the per-core view (line_state). Every iteration
// prints its seed on failure so a violation replays with a one-line repro.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench_core/sim_backend.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

// Re-runs the full-machine invariant sweep after every protocol step.
class InvariantCheckingSink final : public obs::TraceSink {
 public:
  explicit InvariantCheckingSink(const Machine& m) : machine_(m) {}

  void on_event(const obs::TraceEvent&) override {
    ++events_;
    machine_.verify_invariants();  // throws std::logic_error on violation
  }

  std::uint64_t events() const noexcept { return events_; }

 private:
  const Machine& machine_;
  std::uint64_t events_ = 0;
};

// Directory state and per-core state must tell the same story for every
// touched line; this re-derives the invariants from the public API only.
void check_external_consistency(const Machine& m) {
  const CoreId cores = m.core_count();
  for (const LineId id : m.touched_lines()) {
    const Machine::LineSnapshot snap = m.snapshot_line(id);

    std::vector<CoreId> owners;
    std::vector<CoreId> sharers;
    for (CoreId c = 0; c < cores; ++c) {
      switch (m.line_state(id, c)) {
        case Mesi::kModified:
        case Mesi::kExclusive: owners.push_back(c); break;
        case Mesi::kShared: sharers.push_back(c); break;
        case Mesi::kInvalid: break;
      }
    }

    ASSERT_LE(owners.size(), 1u) << "line " << id << ": multiple E/M owners";
    if (!owners.empty()) {
      EXPECT_TRUE(sharers.empty())
          << "line " << id << ": Shared copy coexists with an E/M owner";
      EXPECT_EQ(owners[0], snap.owner)
          << "line " << id << ": directory owner disagrees with cache state";
      EXPECT_EQ(m.line_state(id, owners[0]), snap.owner_state);
    } else {
      EXPECT_EQ(snap.owner, kNoCore)
          << "line " << id << ": directory records an owner no cache holds";
    }
    std::vector<CoreId> dir_sharers = snap.sharers;  // set equality: the
    std::sort(dir_sharers.begin(), dir_sharers.end());  // list is unordered
    EXPECT_EQ(sharers, dir_sharers)
        << "line " << id << ": directory sharer list disagrees with caches";
  }
}

std::unique_ptr<ThreadProgram> random_program(std::mt19937_64& rng,
                                              std::string* desc) {
  const Primitive prims[] = {Primitive::kFaa,  Primitive::kCas,
                             Primitive::kCasLoop, Primitive::kSwap,
                             Primitive::kTas,  Primitive::kLoad,
                             Primitive::kStore};
  const Primitive prim = prims[rng() % std::size(prims)];
  const Cycles work = rng() % 40;
  std::ostringstream os;
  switch (rng() % 4) {
    case 0:
      os << "high-contention prim=" << static_cast<int>(prim) << " work="
         << work;
      *desc = os.str();
      return std::make_unique<HighContentionProgram>(prim, work);
    case 1: {
      const std::size_t lines = 2 + rng() % 30;
      const double s = static_cast<double>(rng() % 200) / 100.0;
      os << "zipf prim=" << static_cast<int>(prim) << " lines=" << lines
         << " s=" << s;
      *desc = os.str();
      return std::make_unique<ZipfSharingProgram>(prim, work, lines, s);
    }
    case 2: {
      const double wf = static_cast<double>(rng() % 100) / 100.0;
      os << "mixed-rw wf=" << wf << " work=" << work;
      *desc = os.str();
      return std::make_unique<MixedReadWriteProgram>(Primitive::kCasLoop, wf,
                                                     work);
    }
    default: {
      const std::uint32_t group = 1 + static_cast<std::uint32_t>(rng() % 8);
      os << "sharded prim=" << static_cast<int>(prim) << " group=" << group;
      *desc = os.str();
      return std::make_unique<ShardedProgram>(prim, work, group);
    }
  }
}

void run_randomized(const std::string& preset, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  MachineConfig cfg = preset_by_name(preset);
  cfg.paranoid_checks = true;  // per-grant checks in addition to the sink's

  Machine machine(cfg, seed);
  InvariantCheckingSink sink(machine);
  machine.set_sink(&sink);

  std::string desc;
  auto program = random_program(rng, &desc);
  const CoreId active =
      2 + static_cast<CoreId>(rng() % (machine.core_count() - 1));
  SCOPED_TRACE("replay: preset=" + preset + " seed=" + std::to_string(seed) +
               " program{" + desc + "} cores=" + std::to_string(active));

  RunStats stats;
  try {
    stats = machine.run(*program, active, /*warmup=*/500, /*measure=*/4'000);
  } catch (const std::logic_error& e) {
    FAIL() << "invariant violated: " << e.what() << " [preset=" << preset
           << " seed=" << seed << " program{" << desc << "}]";
  }

  EXPECT_GT(sink.events(), 0u) << "sink saw no protocol steps";
  EXPECT_GT(bench::to_measured_run(stats, "").total_ops(), 0u);
  check_external_consistency(machine);
}

TEST(MesiInvariants, RandomizedProgramsOnXeonPreset) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    run_randomized("xeon", seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MesiInvariants, RandomizedProgramsOnKnlPreset) {
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    run_randomized("knl", seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// prime_line replaces the whole line record (it cannot stack states into an
// illegal mix), so re-priming S on core 0 with M on core 1 must leave core 0
// Invalid, the checker green, and the directory snapshot consistent.
TEST(MesiInvariants, PrimeLineReplacesStateAndStaysConsistent) {
  MachineConfig cfg = preset_by_name("test");
  Machine machine(cfg, 1);
  machine.prime_line(7, Mesi::kShared, 0, 11);
  machine.prime_line(7, Mesi::kModified, 1, 22);

  EXPECT_EQ(machine.line_state(7, 0), Mesi::kInvalid);
  EXPECT_EQ(machine.line_state(7, 1), Mesi::kModified);
  EXPECT_EQ(machine.line_value(7), 22u);
  EXPECT_NO_THROW(machine.verify_invariants());

  const Machine::LineSnapshot snap = machine.snapshot_line(7);
  EXPECT_EQ(snap.owner, 1u);
  EXPECT_EQ(snap.owner_state, Mesi::kModified);
  EXPECT_TRUE(snap.sharers.empty());
  EXPECT_FALSE(snap.busy);
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_EQ(std::vector<LineId>{7}, machine.touched_lines());
  check_external_consistency(machine);
}

}  // namespace
}  // namespace am::sim
