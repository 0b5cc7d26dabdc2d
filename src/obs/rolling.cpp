#include "obs/rolling.hpp"

namespace am::obs::metrics {

RollingWindows::RollingWindows(const Registry& registry, std::size_t capacity)
    : registry_(registry), capacity_(capacity == 0 ? 1 : capacity) {}

void RollingWindows::sample(std::uint64_t now_ms) {
  Snapshot snap;
  snap.t_ms = now_ms;
  for (const Instrument* inst : registry_.instruments()) {
    switch (inst->type) {
      case Type::kCounter:
        snap.counters.emplace(inst->counter.get(), inst->counter->value());
        break;
      case Type::kHistogram: {
        HistSnap h;
        h.buckets = inst->histogram->bucket_counts();
        h.sum = inst->histogram->sum();
        snap.histograms.emplace(inst->histogram.get(), std::move(h));
        break;
      }
      case Type::kGauge:
        break;  // gauges are point-in-time; windows do not apply
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  if (!ring_.empty() && ring_.back().t_ms >= now_ms) return;
  ring_.push_back(std::move(snap));
  while (ring_.size() > capacity_) ring_.pop_front();
}

const RollingWindows::Snapshot* RollingWindows::baseline(
    double window_s, std::uint64_t now_ms) const {
  if (ring_.empty()) return nullptr;
  const auto span = static_cast<std::uint64_t>(window_s * 1000.0);
  const std::uint64_t start = now_ms >= span ? now_ms - span : 0;
  const Snapshot* best = nullptr;
  // Newest snapshot at or before the window start; the ring is tiny (a few
  // hundred entries), a linear scan from the back is cheap and exact.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->t_ms <= start) {
      best = &*it;
      break;
    }
  }
  // Window start predates the ring: use the oldest snapshot we have and let
  // the caller see the honest (shorter) span via `seconds`.
  if (best == nullptr) best = &ring_.front();
  return best->t_ms < now_ms ? best : nullptr;
}

std::optional<RollingWindows::CounterDelta> RollingWindows::delta(
    const Counter& c, double window_s, std::uint64_t now_ms) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Snapshot* base = baseline(window_s, now_ms);
  if (base == nullptr) return std::nullopt;
  // Instruments registered after the baseline snapshot started from zero,
  // so a missing entry contributes a zero baseline — which is exact.
  std::uint64_t then = 0;
  if (const auto it = base->counters.find(&c); it != base->counters.end()) {
    then = it->second;
  }
  const std::uint64_t now_value = c.value();
  CounterDelta out;
  out.count = now_value >= then ? now_value - then : 0;
  out.seconds = static_cast<double>(now_ms - base->t_ms) / 1000.0;
  return out;
}

std::optional<WindowHistogram> RollingWindows::histogram_delta(
    const Histogram& h, double window_s, std::uint64_t now_ms) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Snapshot* base = baseline(window_s, now_ms);
  if (base == nullptr) return std::nullopt;
  static const HistSnap kZero{};
  const HistSnap* then = &kZero;
  if (const auto it = base->histograms.find(&h);
      it != base->histograms.end()) {
    then = &it->second;
  }
  const auto now_buckets = h.bucket_counts();
  const std::uint64_t now_sum = h.sum();
  WindowHistogram out;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t b = then->buckets[i];
    out.buckets[i] = now_buckets[i] >= b ? now_buckets[i] - b : 0;
    out.count += out.buckets[i];
  }
  out.sum = now_sum >= then->sum ? now_sum - then->sum : 0;
  out.seconds = static_cast<double>(now_ms - base->t_ms) / 1000.0;
  return out;
}

}  // namespace am::obs::metrics
