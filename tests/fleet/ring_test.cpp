#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fleet/ring.hpp"

namespace am::fleet {
namespace {

TEST(HashRing, OwnerIsDeterministicAcrossInstances) {
  HashRing a(4), b(4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "canonical-request-" + std::to_string(i);
    EXPECT_EQ(a.route_order(key), b.route_order(key));
  }
}

TEST(HashRing, OwnerIsStableWhenRebuiltAtSameSize) {
  // A restarted fleet (same worker count) must route every key to the same
  // shard — this is what keeps per-worker LRU caches hot across restarts.
  HashRing first(8);
  std::map<std::string, std::size_t> assignment;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    assignment[key] = first.route_order(key).front();
  }
  HashRing rebuilt(8);
  for (const auto& [key, owner] : assignment) {
    EXPECT_EQ(rebuilt.route_order(key).front(), owner);
  }
}

TEST(HashRing, RouteOrderListsEachWorkerOnce) {
  HashRing ring(5);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::vector<std::size_t> order = ring.route_order(key);
    ASSERT_EQ(order.size(), 5u);
    const std::set<std::size_t> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), 5u);
  }
}

TEST(HashRing, OwnershipIsRoughlyBalanced) {
  const HashRing ring(4, /*vnodes=*/64);
  const std::vector<double> arcs = ring.ownership();
  ASSERT_EQ(arcs.size(), 4u);
  double total = 0.0;
  for (const double arc : arcs) {
    total += arc;
    // 64 virtual nodes per worker keeps the worst shard within a factor
    // of ~2 of fair share (0.25) with these fixed hash points.
    EXPECT_GT(arc, 0.10);
    EXPECT_LT(arc, 0.50);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HashRing, SingleWorkerOwnsEverything) {
  HashRing ring(1);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "x" + std::to_string(i);
    EXPECT_EQ(ring.route_order(key), std::vector<std::size_t>{0});
  }
}

TEST(HashRing, KeysSpreadAcrossWorkers) {
  HashRing ring(4);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(ring.route_order("spread-" + std::to_string(i)).front());
  }
  EXPECT_EQ(seen.size(), 4u);  // 200 keys must touch all 4 shards
}

}  // namespace
}  // namespace am::fleet
