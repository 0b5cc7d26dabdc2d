#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/topology.hpp"

namespace am {
namespace {

TEST(Synthetic, ShapeAndCounts) {
  const Topology t = Topology::synthetic(2, 4, 2);
  EXPECT_EQ(t.logical_cpu_count(), 16u);
  std::set<int> packages;
  std::set<std::pair<int, int>> cores;
  for (const auto& c : t.cpus()) {
    packages.insert(c.package);
    cores.insert({c.package, c.core});
  }
  EXPECT_EQ(packages.size(), 2u);
  EXPECT_EQ(cores.size(), 8u);
}

TEST(Synthetic, OsIdsAreUnique) {
  const Topology t = Topology::synthetic(2, 8, 2);
  std::set<int> ids;
  for (const auto& c : t.cpus()) ids.insert(c.os_id);
  EXPECT_EQ(ids.size(), t.logical_cpu_count());
}

TEST(PinSequence, CompactFillsSocketZeroFirst) {
  const Topology t = Topology::synthetic(2, 4, 2);
  const auto seq = t.pin_sequence(PinOrder::kCompact);
  ASSERT_EQ(seq.size(), 16u);
  // The first 4 placements land on package 0, the next 4 on package 1.
  for (int i = 0; i < 4; ++i) {
    const auto& cpu = t.cpus()[static_cast<std::size_t>(seq[i])];
    EXPECT_EQ(cpu.package, 0) << "slot " << i;
    EXPECT_EQ(cpu.smt, 0);
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(t.cpus()[static_cast<std::size_t>(seq[i])].package, 1);
  }
}

TEST(PinSequence, ScatterAlternatesSockets) {
  const Topology t = Topology::synthetic(2, 4, 1);
  const auto seq = t.pin_sequence(PinOrder::kScatter);
  ASSERT_EQ(seq.size(), 8u);
  for (int i = 0; i + 1 < 8; i += 2) {
    const int p0 = t.cpus()[static_cast<std::size_t>(seq[i])].package;
    const int p1 = t.cpus()[static_cast<std::size_t>(seq[i + 1])].package;
    EXPECT_NE(p0, p1) << "slots " << i << "," << i + 1;
  }
}

TEST(PinSequence, SmtFirstPacksSiblings) {
  const Topology t = Topology::synthetic(1, 2, 2);
  const auto seq = t.pin_sequence(PinOrder::kSmtFirst);
  ASSERT_EQ(seq.size(), 4u);
  const auto& a = t.cpus()[static_cast<std::size_t>(seq[0])];
  const auto& b = t.cpus()[static_cast<std::size_t>(seq[1])];
  EXPECT_EQ(a.core, b.core);  // siblings adjacent
}

TEST(PinSequence, IsAlwaysAPermutation) {
  const Topology t = Topology::synthetic(2, 3, 2);
  for (PinOrder o : {PinOrder::kCompact, PinOrder::kScatter,
                     PinOrder::kSmtFirst}) {
    auto seq = t.pin_sequence(o);
    std::sort(seq.begin(), seq.end());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i], static_cast<int>(i)) << to_string(o);
    }
  }
}

TEST(Synthetic, LayoutIsSmtMajor) {
  const Topology t = Topology::synthetic(2, 2, 2);
  // Synthetic layout: index = smt * (packages*cores) + package*cores + core.
  EXPECT_EQ(t.cpu(0).core, t.cpu(4).core);        // (p0,c0,smt0), (p0,c0,smt1)
  EXPECT_EQ(t.cpu(0).package, t.cpu(4).package);
  EXPECT_NE(t.cpu(0).core, t.cpu(1).core);        // different cores
  EXPECT_EQ(t.cpu(0).package, t.cpu(1).package);
  EXPECT_NE(t.cpu(0).package, t.cpu(2).package);
}

TEST(Discover, ReturnsAtLeastOneCpu) {
  const Topology t = Topology::discover();
  EXPECT_GE(t.logical_cpu_count(), 1u);
}

}  // namespace
}  // namespace am
