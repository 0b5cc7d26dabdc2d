#include "common/cpu.hpp"

#include <chrono>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace am {

std::uint64_t rdtscp() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned aux = 0;
  return __rdtscp(&aux);
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

namespace {

double calibrate_tsc_hz() {
  using clock = std::chrono::steady_clock;
  // Two short spins bracketed by wall-clock reads; long enough (~10 ms) to
  // swamp clock-read overhead, short enough not to matter at startup.
  const auto t0 = clock::now();
  const std::uint64_t c0 = rdtscp();
  const auto deadline = t0 + std::chrono::milliseconds(10);
  while (clock::now() < deadline) {
    cpu_relax();
  }
  const std::uint64_t c1 = rdtscp();
  const auto t1 = clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  if (secs <= 0.0 || c1 <= c0) {
    return 1e9;  // degenerate clock; treat one tick as one nanosecond
  }
  return static_cast<double>(c1 - c0) / secs;
}

}  // namespace

double tsc_frequency_hz() {
  static std::once_flag once;
  static double hz = 0.0;
  std::call_once(once, [] { hz = calibrate_tsc_hz(); });
  return hz;
}

}  // namespace am
