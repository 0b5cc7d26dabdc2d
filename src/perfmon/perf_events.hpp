// perf_event_open wrapper for the hardware measurement backend.
//
// The paper's methodology reads hardware counters (cycles, instructions,
// cache misses) around each measurement epoch. Counter access is frequently
// unavailable (perf_event_paranoid, containers, non-x86); every call here
// degrades to "counter absent" instead of failing the experiment, and
// results record which counters were live.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace am {

enum class PerfEvent : std::uint8_t {
  kCycles,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchMisses,
  kTaskClockNs,
};

/// One reading: event -> count since enable(). Missing events are absent.
struct PerfSample {
  std::vector<std::pair<PerfEvent, std::uint64_t>> counts;

  std::optional<std::uint64_t> get(PerfEvent e) const noexcept;
};

/// A group of per-thread counters. Usage:
///   PerfCounterGroup g({PerfEvent::kCycles, PerfEvent::kCacheMisses});
///   g.enable();  ...measured region...  auto s = g.read(); g.disable();
class PerfCounterGroup {
 public:
  explicit PerfCounterGroup(const std::vector<PerfEvent>& events);
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;
  PerfCounterGroup(PerfCounterGroup&&) noexcept;
  PerfCounterGroup& operator=(PerfCounterGroup&&) noexcept;

  /// True when at least one requested event opened successfully.
  bool available() const noexcept;

  void enable() noexcept;
  void disable() noexcept;
  void reset() noexcept;
  PerfSample read() const;

 private:
  struct Counter {
    PerfEvent event;
    int fd = -1;
  };
  std::vector<Counter> counters_;
  void close_all() noexcept;
};

}  // namespace am
