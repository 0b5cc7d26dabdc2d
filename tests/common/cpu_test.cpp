#include <gtest/gtest.h>
#include <sched.h>

#include <chrono>
#include <thread>

#include "common/affinity.hpp"
#include "common/cacheline.hpp"
#include "common/cpu.hpp"

namespace am {
namespace {

TEST(Tsc, Monotonic) {
  const auto a = rdtscp();
  const auto b = rdtscp();
  EXPECT_GE(b, a);
}

TEST(Tsc, FrequencyPlausible) {
  const double hz = tsc_frequency_hz();
  // Anything between 100 MHz and 10 GHz is a plausible TSC rate.
  EXPECT_GT(hz, 1e8);
  EXPECT_LT(hz, 1e10);
  // Cached: second call returns the identical value.
  EXPECT_DOUBLE_EQ(hz, tsc_frequency_hz());
}

TEST(Tsc, TicksToNsRoughlyTracksSleep) {
  const auto t0 = rdtscp();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t1 = rdtscp();
  const double ns = static_cast<double>(t1 - t0) * 1e9 / tsc_frequency_hz();
  EXPECT_GT(ns, 10e6);   // at least 10 ms measured
  EXPECT_LT(ns, 500e6);  // and not absurdly long
}

TEST(Cacheline, PaddingGeometry) {
  EXPECT_EQ(round_up_to_line(0), 0u);
  EXPECT_EQ(round_up_to_line(1), kCacheLineSize);
  EXPECT_EQ(round_up_to_line(64), 64u);
  EXPECT_EQ(round_up_to_line(65), 128u);
  Padded<int> p(7);
  EXPECT_EQ(*p, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&p) % kNoFalseSharingAlign, 0u);
}

TEST(Affinity, PinToCpuZeroSucceedsOnLinux) {
#ifdef __linux__
  EXPECT_TRUE(pin_current_thread(0));
  EXPECT_EQ(sched_getcpu(), 0);
  EXPECT_TRUE(unpin_current_thread());
#else
  GTEST_SKIP() << "affinity is Linux-only";
#endif
}

TEST(Affinity, RejectsInvalidCpu) {
  EXPECT_FALSE(pin_current_thread(-1));
  EXPECT_FALSE(pin_current_thread(1 << 20));
}

TEST(DoNotOptimize, CompilesAndRuns) {
  int x = 42;
  do_not_optimize(x);
  compiler_barrier();
  cpu_relax();
  SUCCEED();
}

}  // namespace
}  // namespace am
