#include <gtest/gtest.h>

#include "sim/interconnect.hpp"

namespace am::sim {
namespace {

TEST(TwoSocket, LatencyClasses) {
  TwoSocketInterconnect ic(18, 70, 180);
  EXPECT_EQ(ic.core_count(), 36u);
  EXPECT_EQ(ic.transfer_cycles(0, 0), 0u);
  EXPECT_EQ(ic.transfer_cycles(0, 17), 70u);
  EXPECT_EQ(ic.transfer_cycles(0, 18), 180u);
  EXPECT_EQ(ic.transfer_cycles(35, 18), 70u);
  EXPECT_EQ(ic.supply_class(0, 1), Supply::kNear);
  EXPECT_EQ(ic.supply_class(0, 20), Supply::kFar);
  EXPECT_EQ(ic.supply_class(3, 3), Supply::kLocalHit);
}

TEST(TwoSocket, DistanceAndHops) {
  TwoSocketInterconnect ic(4, 50, 100);
  EXPECT_EQ(ic.distance(0, 1), 1u);
  EXPECT_EQ(ic.distance(0, 5), 2u);
  EXPECT_EQ(ic.distance(2, 2), 0u);
  EXPECT_EQ(ic.hops(0, 1), 1u);
  EXPECT_EQ(ic.hops(0, 5), 3u);
}

TEST(TwoSocket, SymmetricLatency) {
  TwoSocketInterconnect ic(8, 60, 150);
  for (CoreId a = 0; a < 16; a += 3) {
    for (CoreId b = 0; b < 16; b += 5) {
      EXPECT_EQ(ic.transfer_cycles(a, b), ic.transfer_cycles(b, a));
    }
  }
}

TEST(TwoSocket, RejectsEmptySocket) {
  EXPECT_THROW(TwoSocketInterconnect(0, 1, 2), std::invalid_argument);
}

TEST(Mesh, ManhattanGeometry) {
  MeshInterconnect ic(8, 8, 150, 6, 4);
  EXPECT_EQ(ic.core_count(), 64u);
  EXPECT_EQ(ic.manhattan(0, 0), 0u);
  EXPECT_EQ(ic.manhattan(0, 7), 7u);   // same row, far column
  EXPECT_EQ(ic.manhattan(0, 63), 14u); // opposite corner
  EXPECT_EQ(ic.manhattan(9, 18), 2u);  // (1,1) -> (2,2)
  EXPECT_EQ(ic.transfer_cycles(0, 63), 150u + 6u * 14u);
}

TEST(Mesh, SupplyClassByDistance) {
  MeshInterconnect ic(8, 8, 150, 6, 4);
  EXPECT_EQ(ic.supply_class(0, 1), Supply::kNear);
  EXPECT_EQ(ic.supply_class(0, 4), Supply::kNear);   // 4 hops == near limit
  EXPECT_EQ(ic.supply_class(0, 5), Supply::kFar);    // 5 hops
  EXPECT_EQ(ic.supply_class(12, 12), Supply::kLocalHit);
}

TEST(Mesh, RejectsEmpty) {
  EXPECT_THROW(MeshInterconnect(0, 8, 1, 1, 1), std::invalid_argument);
}

TEST(Uniform, SingleClass) {
  UniformInterconnect ic(4, 100);
  EXPECT_EQ(ic.transfer_cycles(0, 3), 100u);
  EXPECT_EQ(ic.transfer_cycles(2, 2), 0u);
  EXPECT_EQ(ic.supply_class(0, 1), Supply::kNear);
  EXPECT_EQ(ic.distance(0, 1), 1u);
}

TEST(Names, EnumToString) {
  EXPECT_STREQ(to_string(Supply::kFar), "far");
  EXPECT_STREQ(to_string(Arbitration::kFifo), "fifo");
  EXPECT_STREQ(to_string(Arbitration::kProximityBiased), "proximity-biased");
}

}  // namespace
}  // namespace am::sim
