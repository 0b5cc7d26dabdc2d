#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/affinity.hpp"
#include "common/json.hpp"
#include "common/sha256.hpp"
#include "service/client.hpp"
#include "sim/config.hpp"

namespace perfbench {

double now_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void pin_next_cpu() {
  static const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  static std::atomic<std::size_t> next{0};
  am::pin_current_thread(
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) % cpus));
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string digest(std::string_view bytes) { return am::sha256_hex(bytes, 8); }

std::string response_result(const std::string& line) {
  // Envelopes keep a fixed member order with "result" last.
  const std::size_t pos = line.find("\"result\":");
  if (pos == std::string::npos || line.empty() || line.back() != '}') return "";
  const std::size_t begin = pos + 9;
  return line.substr(begin, line.size() - 1 - begin);
}

double result_number(const std::string& line, const char* key) {
  const auto doc = am::JsonValue::parse(line);
  if (!doc) return 0.0;
  const am::JsonValue* result = doc->find("result");
  const am::JsonValue* value = result != nullptr ? result->find(key) : nullptr;
  return value != nullptr && value->type() == am::JsonValue::Type::kNumber
             ? value->as_number()
             : 0.0;
}

bool response_ok(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

// --- spans ---------------------------------------------------------------------

std::size_t SpanLog::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur());
  }
  return out;
}

std::vector<double> SpanLog::self_times(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.dur();
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(spans_[i].dur() - child[i]);
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << s.name << ' ' << s.start_us << ' ' << s.end_us << ' ' << s.parent
        << ' ' << s.req_id << '\n';
  }
  return static_cast<bool>(out);
}

// --- decorators ----------------------------------------------------------------

bool TimedHandler::traced(std::string_view line) {
  return (am::service::chain_hash(line, 0x7ace) & 1) == 0;
}

am::service::HandleResult TimedHandler::handle(
    const am::service::Request& r, std::string_view raw,
    const am::service::RequestContext* ctx) {
  if (!traced(raw)) return inner_.handle(r, raw, ctx);
  Timing t;
  t.start_us = now_us();
  am::service::HandleResult out = inner_.handle(r, raw, ctx);
  t.end_us = now_us();
  t.cache_hit = out.cache_hit;
  std::lock_guard<std::mutex> lock(mu_);
  parked_.emplace(am::service::chain_hash(raw, 0), t);
  return out;
}

bool TimedHandler::take(std::string_view line, Timing* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = parked_.find(am::service::chain_hash(line, 0));
  if (it == parked_.end()) return false;
  *out = it->second;
  parked_.erase(it);
  return true;
}

am::bench::MeasuredRun TimedBackend::do_run(
    const am::bench::WorkloadConfig& c) {
  pin_next_cpu();
  const double t0 = now_us();
  am::bench::MeasuredRun run = inner_->run(c);
  *run_us_ = now_us() - t0;
  discard_.clear();
  return run;
}

SampleBackend::SampleBackend(const am::service::CalibrateQuery& q)
    : machine_(q.machine) {
  const am::sim::MachineConfig mc = am::sim::preset_by_name(q.machine);
  cores_ = mc.cores;
  freq_ghz_ = mc.freq_ghz;
  for (const am::service::CalibrateSample& s : q.samples) {
    samples_[{s.mode == "private", s.prim, s.threads}] = s.cycles_per_op;
  }
}

am::bench::MeasuredRun SampleBackend::do_run(
    const am::bench::WorkloadConfig& c) {
  am::bench::MeasuredRun run;
  run.backend = "client";
  run.machine = machine_;
  run.freq_ghz = freq_ghz_;
  run.threads.resize(c.threads);
  const bool is_private = c.mode == am::bench::WorkloadMode::kLowContention;
  const auto it = samples_.find({is_private, c.prim, c.threads});
  if (it == samples_.end()) return run;
  constexpr std::uint64_t kOps = 1'000'000;
  run.duration_cycles = it->second * static_cast<double>(kOps);
  run.threads[0].ops = kOps;
  run.threads[0].successes = kOps;
  run.threads[0].attempts = kOps;
  return run;
}

// --- load ----------------------------------------------------------------------

std::uint64_t closed_loop(
    const am::service::Endpoint& ep, std::size_t n, unsigned connections,
    const std::function<const std::string&(std::size_t)>& line_of,
    const std::function<void(std::size_t, std::string&&, double, double)>&
        on_done) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      am::service::ServiceClient client;
      std::string error;
      if (!client.connect(ep, &error)) {
        failures.fetch_add(1);
        return;
      }
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= n) return;
        const std::string& line = line_of(i);
        const double t0 = now_us();
        std::optional<std::string> response = client.roundtrip(line, &error);
        const double t1 = now_us();
        if (!response.has_value()) {
          failures.fetch_add(1);
          return;
        }
        on_done(i, std::move(*response), t0, t1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Items never sent because a connection died count as failures too.
  const std::size_t sent = std::min(cursor.load(), n);
  return failures.load() + (n - sent);
}

void Result::fail(const std::string& what, std::uint64_t count) {
  failed += count;
  if (errors.size() < 8) errors.push_back(what);
}

}  // namespace perfbench
