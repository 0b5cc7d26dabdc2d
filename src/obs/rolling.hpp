// Rolling time-window views over a metrics Registry.
//
// The registry's counters and histogram buckets are monotonic, which turns
// "qps over the last 10 seconds" into pure arithmetic: keep a ring of
// timestamped snapshots (one per epoch) and subtract the snapshot nearest
// the window start from the live value. The hot path stays the registry's
// lock-free fetch-add; this layer only ever *reads*, on a sampler cadence
// (one snapshot per epoch) and at scrape time.
//
// The clock is injected as explicit now_ms arguments so tests can step a
// simulated clock through epoch boundaries and assert exact window math;
// the server drives it from steady_clock.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace am::obs::metrics {

/// Histogram activity inside one window: per-bucket deltas plus the elapsed
/// time they cover. percentile() interpolates inside the winning bucket.
struct WindowHistogram {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double seconds = 0.0;  ///< wall time the delta actually spans

  double percentile(double q) const noexcept {
    return bucket_percentile(buckets, q);
  }
  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class RollingWindows {
 public:
  /// @param registry  instruments to snapshot (instruments registered later
  ///                  join the ring on the next sample()).
  /// @param capacity  ring depth; capacity * sample cadence bounds the
  ///                  longest answerable window (256 @ 500ms = ~128s).
  explicit RollingWindows(const Registry& registry, std::size_t capacity = 256);

  /// Takes one snapshot stamped @p now_ms. Out-of-order stamps are ignored.
  void sample(std::uint64_t now_ms);

  /// Counter delta over (approximately) the last @p window_s seconds:
  /// live value minus the newest snapshot at least window_s old. Returns
  /// nullopt when no snapshot exists yet (caller falls back to lifetime).
  /// The rate denominator is the *actual* span covered, so a ring that is
  /// still warming up reports honest partial-window rates.
  struct CounterDelta {
    std::uint64_t count = 0;
    double seconds = 0.0;
    double rate() const noexcept {
      return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
    }
  };
  std::optional<CounterDelta> delta(const Counter& c, double window_s,
                                    std::uint64_t now_ms) const;

  /// Histogram bucket deltas over the last @p window_s seconds.
  std::optional<WindowHistogram> histogram_delta(const Histogram& h,
                                                 double window_s,
                                                 std::uint64_t now_ms) const;

 private:
  struct HistSnap {
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t sum = 0;
  };
  struct Snapshot {
    std::uint64_t t_ms = 0;
    /// Keyed by instrument address — instruments are never destroyed.
    std::unordered_map<const Counter*, std::uint64_t> counters;
    std::unordered_map<const Histogram*, HistSnap> histograms;
  };

  /// Newest snapshot with t_ms <= now_ms - window, else the oldest one.
  const Snapshot* baseline(double window_s, std::uint64_t now_ms) const;

  const Registry& registry_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Snapshot> ring_;  ///< oldest at front
};

}  // namespace am::obs::metrics
