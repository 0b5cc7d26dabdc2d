// Registry and instrument semantics: exact totals under concurrent
// hammering (the TSan gate for the sharded fetch-add design), log2 bucket
// math, interning rules, and the process-wide enable switch.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace m = am::obs::metrics;

TEST(Counter, SingleThreadExact) {
  m::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

// The load-bearing concurrency test: N threads hammer one counter and one
// histogram; the sharded relaxed fetch-adds must neither lose updates nor
// trip TSan. Totals are exact because increments are atomic per shard and
// value() sums all shards after join.
TEST(Counter, ConcurrentHammerExactTotal) {
  m::Registry reg;
  m::Counter& c = reg.counter("hammer_total", "test");
  m::Histogram& h = reg.histogram("hammer_lat", "test");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(t);  // thread id as the observed value: known bucket mix
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0}),
            kThreads * kPerThread);
  // sum = kPerThread * (0 + 1 + ... + kThreads-1)
  EXPECT_EQ(h.sum(), kPerThread * (kThreads * (kThreads - 1) / 2));
}

TEST(Gauge, SetAndAdd) {
  m::Gauge g;
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketIndexIsBitWidth) {
  EXPECT_EQ(m::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(m::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(m::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(m::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(m::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(m::Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(m::Histogram::bucket_index(1024), 11u);
  // Saturates into the last (+Inf) bucket.
  EXPECT_EQ(m::Histogram::bucket_index(~std::uint64_t{0}),
            m::Histogram::kBuckets - 1);
}

TEST(Histogram, BucketBoundIsInclusiveUpperEdge) {
  EXPECT_EQ(m::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(m::Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(m::Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(m::Histogram::bucket_bound(10), 1023u);
  EXPECT_EQ(m::Histogram::bucket_bound(m::Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST(Histogram, CountsLandInTheRightBuckets) {
  m::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1000);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[0], 1u);   // v == 0
  EXPECT_EQ(buckets[1], 1u);   // v == 1
  EXPECT_EQ(buckets[2], 2u);   // v in [2,4)
  EXPECT_EQ(buckets[10], 1u);  // 1000 in [512,1024)
  EXPECT_EQ(std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0}),
            5u);
  EXPECT_EQ(h.sum(), 1006u);
}

TEST(BucketPercentile, InterpolatesAndClamps) {
  std::array<std::uint64_t, m::Histogram::kBuckets> buckets{};
  EXPECT_DOUBLE_EQ(m::bucket_percentile(buckets, 50.0), 0.0);  // empty
  buckets[11] = 100;  // all mass in [1024, 2048)
  const double p50 = m::bucket_percentile(buckets, 50.0);
  EXPECT_GE(p50, 1024.0);
  EXPECT_LE(p50, 2047.0);
  const double p1 = m::bucket_percentile(buckets, 1.0);
  const double p99 = m::bucket_percentile(buckets, 99.0);
  EXPECT_LE(p1, p50);
  EXPECT_LE(p50, p99);
}

TEST(Registry, InternsByNameAndLabels) {
  m::Registry reg;
  m::Counter& a = reg.counter("reqs_total", "help", {{"kind", "ping"}});
  m::Counter& b = reg.counter("reqs_total", "help", {{"kind", "ping"}});
  m::Counter& c = reg.counter("reqs_total", "help", {{"kind", "stats"}});
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same instrument
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.instruments().size(), 2u);
}

TEST(Registry, TypeConflictThrows) {
  m::Registry reg;
  reg.counter("x_total", "help");
  EXPECT_THROW(reg.gauge("x_total", "help"), std::logic_error);
  EXPECT_THROW(reg.histogram("x_total", "help"), std::logic_error);
}

TEST(Registry, ExpositionOrderIsSorted) {
  m::Registry reg;
  reg.counter("zebra_total", "z");
  reg.counter("alpha_total", "a");
  reg.gauge("middle", "m");
  const auto instruments = reg.instruments();
  ASSERT_EQ(instruments.size(), 3u);
  EXPECT_EQ(instruments[0]->name, "alpha_total");
  EXPECT_EQ(instruments[1]->name, "middle");
  EXPECT_EQ(instruments[2]->name, "zebra_total");
}

TEST(Enabled, GlobalSwitchRoundTrips) {
  EXPECT_TRUE(m::enabled());  // default on
  m::set_enabled(false);
  EXPECT_FALSE(m::enabled());
  m::set_enabled(true);
  EXPECT_TRUE(m::enabled());
}

TEST(DefaultRegistry, IsProcessWideSingleton) {
  EXPECT_EQ(&m::default_registry(), &m::default_registry());
}
