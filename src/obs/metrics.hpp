// Process-wide telemetry registry: counters, gauges and log2 histograms.
//
// The hot path is itself an application of the source paper's thesis. A
// telemetry counter is the canonical high-contention shared object: every
// worker thread bumps it on every request. The paper shows that on modern
// machines an unconditional fetch-and-add sustains throughput where a
// CAS loop collapses under contention — so Counter::inc() is exactly one
// relaxed fetch_add, never a lock and never a compare-exchange retry. On
// top of that, each instrument stripes its state over cache-line-padded
// per-thread-slot shards (the same Padded discipline the measurement
// harness uses), so concurrent writers usually touch *different* lines and
// the fetch-add mostly runs in the paper's low-contention regime. Reads
// (scrapes) sum the shards; they are allowed to be racy-but-monotonic.
//
// Registration is the cold path: Registry::counter()/gauge()/histogram()
// take a mutex, intern the (name, labels) key and hand back a reference
// that stays valid for the registry's lifetime. Callers cache the
// reference once and never touch the map again.
//
// The layer depends only on am_common, so every other library (sim, sweep,
// service) can publish into the default registry without dependency cycles.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"

namespace am::obs::metrics {

/// Shards per instrument. Each live thread is assigned one slot round-robin;
/// with typical worker-pool widths (<= 16) every thread owns a private line.
inline constexpr std::size_t kShards = 16;

/// This thread's shard slot (assigned round-robin at first use).
std::size_t this_thread_shard() noexcept;

/// Process-wide kill switch checked by the *coarse* publication points
/// (per-run flushes, per-point counters); individual inc() calls are cheap
/// enough that instrumented layers do not test it per event. Default on.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotonic counter. inc() is one relaxed fetch-add on a padded per-shard
/// slot — wait-free, no CAS loop, no shared line in the common case.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    shards_[this_thread_shard()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  /// Racy-but-monotonic sum over shards (scrape path).
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(kNoFalseSharingAlign) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kShards> shards_{};
};

/// Point-in-time value (set wins over add; both are single atomic ops).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log2 histogram of non-negative integer observations
/// (latencies in microseconds, sizes, cycle counts). Bucket i counts values
/// v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 counts
/// exactly v == 0. Buckets are monotonic counters, which is what makes
/// rolling-window percentiles a *subtraction* of two snapshots (see
/// rolling.hpp) instead of a lock-protected ring of samples.
class Histogram {
 public:
  /// 0, 1, [2,4), ... [2^46, 2^47): covers ~1.4e14 — weeks in microseconds.
  static constexpr std::size_t kBuckets = 48;

  void observe(std::uint64_t v) noexcept {
    Shard& s = shards_[this_thread_shard()];
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  static std::size_t bucket_index(std::uint64_t v) noexcept {
    const auto w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }
  /// Inclusive upper bound of bucket i (2^i - 1); the last bucket is
  /// unbounded and rendered as +Inf.
  static std::uint64_t bucket_bound(std::size_t i) noexcept {
    return i + 1 >= kBuckets ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << i) - 1;
  }

  /// Racy-but-monotonic per-bucket totals (scrape/snapshot path).
  std::array<std::uint64_t, kBuckets> bucket_counts() const noexcept;
  std::uint64_t sum() const noexcept;

 private:
  struct alignas(kNoFalseSharingAlign) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Percentile estimate (q in [0,100]) from a log2 bucket distribution,
/// geometrically interpolated inside the winning bucket. Shared by the
/// exposition layer and the rolling-window views.
double bucket_percentile(const std::array<std::uint64_t, Histogram::kBuckets>&
                             buckets,
                         double q) noexcept;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(Type t) noexcept;

using Labels = std::vector<std::pair<std::string, std::string>>;

/// One registered instrument. Stable address for the registry's lifetime.
struct Instrument {
  std::string name;    ///< metric family name (am_requests_total)
  Labels labels;       ///< label set distinguishing it within the family
  std::string help;    ///< family help text (first registration wins)
  Type type = Type::kCounter;

  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;

  /// `name{k="v",...}` (no suffix when unlabeled) — the exposition and
  /// snapshot identity.
  std::string key() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument for (name, labels), creating it on first use.
  /// Re-registration with a different type throws std::logic_error — a
  /// metric name means one thing per process.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       Labels labels = {});

  /// Instruments in exposition order (family name, then label key). The
  /// pointers stay valid forever; the vector is a snapshot of the current
  /// registration set.
  std::vector<const Instrument*> instruments() const;

 private:
  Instrument& intern(std::string_view name, std::string_view help,
                     Labels&& labels, Type type);

  mutable std::mutex mu_;
  /// Keyed by Instrument::key(); map order is exposition order.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
};

/// The process-wide registry every layer publishes into by default.
Registry& default_registry();

}  // namespace am::obs::metrics
