// RollingWindows under a simulated clock: window deltas are exact
// arithmetic over snapshots, so stepping now_ms by hand lets the tests
// assert rates and percentiles to the digit.

#include "obs/rolling.hpp"

#include <gtest/gtest.h>

namespace m = am::obs::metrics;

TEST(RollingWindows, NoSnapshotYieldsNullopt) {
  m::Registry reg;
  m::Counter& c = reg.counter("reqs_total", "test");
  m::RollingWindows windows(reg, 8);
  EXPECT_FALSE(windows.delta(c, 10.0, 1000).has_value());
}

TEST(RollingWindows, ExactRateOverSimulatedClock) {
  m::Registry reg;
  m::Counter& c = reg.counter("reqs_total", "test");
  m::RollingWindows windows(reg, 64);

  windows.sample(0);  // baseline at t=0, value 0
  c.inc(100);
  windows.sample(1000);  // t=1s, value 100
  c.inc(300);
  windows.sample(2000);  // t=2s, value 400

  // 1s window at t=2s: baseline is the t=1s snapshot -> 300 reqs / 1s.
  auto d1 = windows.delta(c, 1.0, 2000);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->count, 300u);
  EXPECT_DOUBLE_EQ(d1->seconds, 1.0);
  EXPECT_DOUBLE_EQ(d1->rate(), 300.0);

  // 2s window at t=2s: baseline is t=0 -> 400 reqs / 2s.
  auto d2 = windows.delta(c, 2.0, 2000);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->count, 400u);
  EXPECT_DOUBLE_EQ(d2->rate(), 200.0);
}

TEST(RollingWindows, WarmupWindowIsHonestAboutPartialSpan) {
  m::Registry reg;
  m::Counter& c = reg.counter("reqs_total", "test");
  m::RollingWindows windows(reg, 64);
  windows.sample(0);
  c.inc(50);
  // A 60s window only 5s in falls back to the oldest snapshot and reports
  // the 5s it actually covers — not a rate diluted over 60s.
  auto d = windows.delta(c, 60.0, 5000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->count, 50u);
  EXPECT_DOUBLE_EQ(d->seconds, 5.0);
  EXPECT_DOUBLE_EQ(d->rate(), 10.0);
}

TEST(RollingWindows, RingEvictsOldestBeyondCapacity) {
  m::Registry reg;
  m::Counter& c = reg.counter("reqs_total", "test");
  m::RollingWindows windows(reg, 4);
  for (std::uint64_t t = 0; t < 10; ++t) {
    windows.sample(t * 1000);
    c.inc(10);
  }
  // Only the newest 4 snapshots survive, so the oldest is t=6s (value 60);
  // a huge window clamps to it: delta = 100 - 60 over 3s.
  auto d = windows.delta(c, 1000.0, 9000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->count, 40u);
  EXPECT_DOUBLE_EQ(d->seconds, 3.0);
}

TEST(RollingWindows, OutOfOrderSampleIgnored) {
  m::Registry reg;
  m::Counter& c = reg.counter("reqs_total", "test");
  m::RollingWindows windows(reg, 8);
  windows.sample(1000);
  windows.sample(500);  // stale stamp: dropped
  c.inc(7);
  auto d = windows.delta(c, 10.0, 2000);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->count, 7u);
  // Had t=500 been kept it would be the baseline of a 1s window at 1.5s;
  // the only snapshot is t=1000, so the window covers 0.5s.
  d = windows.delta(c, 1.0, 1500);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(d->seconds, 0.5);
}

TEST(RollingWindows, HistogramWindowSeesOnlyRecentObservations) {
  m::Registry reg;
  m::Histogram& h = reg.histogram("lat_us", "test");
  m::RollingWindows windows(reg, 64);

  windows.sample(0);  // empty baseline
  // Epoch 1: slow requests (~4000us).
  for (int i = 0; i < 100; ++i) h.observe(4000);
  windows.sample(1000);
  // Epoch 2: fast requests (~10us).
  for (int i = 0; i < 100; ++i) h.observe(10);

  // A 1s window at t=2s subtracts the t=1s snapshot: only the fast batch.
  auto w = windows.histogram_delta(h, 1.0, 2000);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->count, 100u);
  EXPECT_EQ(w->sum, 100u * 10u);
  EXPECT_LT(w->percentile(99.0), 100.0);
  EXPECT_DOUBLE_EQ(w->mean(), 10.0);

  // The lifetime distribution puts p90 in the slow bucket; prove the window
  // view differs from it.
  auto lifetime = windows.histogram_delta(h, 1000.0, 2000);
  ASSERT_TRUE(lifetime.has_value());
  EXPECT_EQ(lifetime->count, 200u);
  EXPECT_GT(lifetime->percentile(90.0), 1000.0);
}

TEST(RollingWindows, LateRegisteredInstrumentJoinsNextSample) {
  m::Registry reg;
  m::RollingWindows windows(reg, 8);
  windows.sample(0);
  m::Counter& late = reg.counter("late_total", "test");
  late.inc(5);
  // Not in the t=0 snapshot: treated as starting from zero there, so the
  // full-window fallback still reports the live value.
  auto d0 = windows.delta(late, 10.0, 500);
  ASSERT_TRUE(d0.has_value());
  EXPECT_EQ(d0->count, 5u);
  windows.sample(1000);
  late.inc(2);
  auto d1 = windows.delta(late, 0.5, 1500);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->count, 2u);
}
