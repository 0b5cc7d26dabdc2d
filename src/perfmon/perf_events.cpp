#include "perfmon/perf_events.hpp"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

namespace am {

std::optional<std::uint64_t> PerfSample::get(PerfEvent e) const noexcept {
  for (const auto& [ev, v] : counts) {
    if (ev == e) return v;
  }
  return std::nullopt;
}

#ifdef __linux__
namespace {

int open_event(PerfEvent e) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  switch (e) {
    case PerfEvent::kCycles:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CPU_CYCLES;
      break;
    case PerfEvent::kInstructions:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_INSTRUCTIONS;
      break;
    case PerfEvent::kCacheReferences:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CACHE_REFERENCES;
      break;
    case PerfEvent::kCacheMisses:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CACHE_MISSES;
      break;
    case PerfEvent::kBranchMisses:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_BRANCH_MISSES;
      break;
    case PerfEvent::kTaskClockNs:
      attr.type = PERF_TYPE_SOFTWARE;
      attr.config = PERF_COUNT_SW_TASK_CLOCK;
      break;
  }
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /*this thread*/, -1 /*any cpu*/,
              -1 /*no group leader*/, 0));
}

}  // namespace
#endif

PerfCounterGroup::PerfCounterGroup(const std::vector<PerfEvent>& events) {
  for (PerfEvent e : events) {
#ifdef __linux__
    counters_.push_back({e, open_event(e)});
#else
    counters_.push_back({e, -1});
#endif
  }
}

PerfCounterGroup::~PerfCounterGroup() { close_all(); }

PerfCounterGroup::PerfCounterGroup(PerfCounterGroup&& other) noexcept
    : counters_(std::move(other.counters_)) {
  other.counters_.clear();
}

PerfCounterGroup& PerfCounterGroup::operator=(PerfCounterGroup&& other) noexcept {
  if (this != &other) {
    close_all();
    counters_ = std::move(other.counters_);
    other.counters_.clear();
  }
  return *this;
}

void PerfCounterGroup::close_all() noexcept {
#ifdef __linux__
  for (auto& c : counters_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
#endif
}

bool PerfCounterGroup::available() const noexcept {
  for (const auto& c : counters_) {
    if (c.fd >= 0) return true;
  }
  return false;
}

void PerfCounterGroup::enable() noexcept {
#ifdef __linux__
  for (const auto& c : counters_) {
    if (c.fd >= 0) ioctl(c.fd, PERF_EVENT_IOC_ENABLE, 0);
  }
#endif
}

void PerfCounterGroup::disable() noexcept {
#ifdef __linux__
  for (const auto& c : counters_) {
    if (c.fd >= 0) ioctl(c.fd, PERF_EVENT_IOC_DISABLE, 0);
  }
#endif
}

void PerfCounterGroup::reset() noexcept {
#ifdef __linux__
  for (const auto& c : counters_) {
    if (c.fd >= 0) ioctl(c.fd, PERF_EVENT_IOC_RESET, 0);
  }
#endif
}

PerfSample PerfCounterGroup::read() const {
  PerfSample sample;
#ifdef __linux__
  for (const auto& c : counters_) {
    if (c.fd < 0) continue;
    std::uint64_t value = 0;
    if (::read(c.fd, &value, sizeof(value)) == sizeof(value)) {
      sample.counts.emplace_back(c.event, value);
    }
  }
#endif
  return sample;
}

}  // namespace am
