#include "obs/metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace am::obs::metrics {

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<std::size_t> g_next_thread{0};

}  // namespace

std::size_t this_thread_shard() noexcept {
  // Round-robin slot assignment beats hashing thread ids: consecutive pool
  // threads land on distinct shards by construction, so a worker pool up to
  // kShards wide never shares a counter line.
  thread_local const std::size_t slot =
      g_next_thread.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts()
    const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double bucket_percentile(
    const std::array<std::uint64_t, Histogram::kBuckets>& buckets,
    double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const double target = (q / 100.0) * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t before = seen;
    seen += buckets[i];
    if (static_cast<double>(seen) < target) continue;
    if (i == 0) return 0.0;  // the zero bucket
    // Geometric interpolation across the bucket's [2^(i-1), 2^i) span.
    const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
    const double hi = std::ldexp(1.0, static_cast<int>(i));
    const double frac =
        (target - static_cast<double>(before)) / static_cast<double>(buckets[i]);
    return lo * std::pow(hi / lo, std::min(1.0, std::max(0.0, frac)));
  }
  // Unreachable when total > 0; keep the compiler satisfied.
  return std::ldexp(1.0, static_cast<int>(buckets.size()));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

const char* to_string(Type t) noexcept {
  switch (t) {
    case Type::kCounter: return "counter";
    case Type::kGauge: return "gauge";
    case Type::kHistogram: return "histogram";
  }
  return "?";
}

std::string Instrument::key() const {
  std::string k = name;
  if (labels.empty()) return k;
  k += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) k += ',';
    k += labels[i].first;
    k += "=\"";
    k += labels[i].second;
    k += '"';
  }
  k += '}';
  return k;
}

Instrument& Registry::intern(std::string_view name, std::string_view help,
                             Labels&& labels, Type type) {
  Instrument probe;
  probe.name = std::string(name);
  probe.labels = std::move(labels);
  std::string key = probe.key();

  const std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    if (it->second->type != type) {
      throw std::logic_error("metric '" + key + "' re-registered as " +
                             std::string(to_string(type)) + ", was " +
                             to_string(it->second->type));
    }
    return *it->second;
  }
  auto inst = std::make_unique<Instrument>();
  inst->name = std::move(probe.name);
  inst->labels = std::move(probe.labels);
  inst->help = std::string(help);
  inst->type = type;
  switch (type) {
    case Type::kCounter: inst->counter = std::make_unique<Counter>(); break;
    case Type::kGauge: inst->gauge = std::make_unique<Gauge>(); break;
    case Type::kHistogram:
      inst->histogram = std::make_unique<Histogram>();
      break;
  }
  Instrument& ref = *inst;
  instruments_.emplace(std::move(key), std::move(inst));
  return ref;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  return *intern(name, help, std::move(labels), Type::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  return *intern(name, help, std::move(labels), Type::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               Labels labels) {
  return *intern(name, help, std::move(labels), Type::kHistogram).histogram;
}

std::vector<const Instrument*> Registry::instruments() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Instrument*> out;
  out.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) out.push_back(inst.get());
  return out;
}

Registry& default_registry() {
  static Registry* registry = new Registry();  // immortal: no exit-order races
  return *registry;
}

}  // namespace am::obs::metrics
