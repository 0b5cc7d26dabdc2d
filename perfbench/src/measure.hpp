// Timing, span and result plumbing shared by the workloads.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's public functions (a RequestHandler decorator, an
// ExecutionBackend decorator, and direct replays), kept in memory, and
// written out when the run ends.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench_core/backend.hpp"
#include "service/handlers.hpp"
#include "service/net.hpp"

namespace perfbench {

/// Microseconds on the steady clock since an arbitrary process-wide origin.
double now_us();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Pins the calling thread to the next CPU of a process-wide rotation.
/// The cores of a shared host differ in speed by several times, and which
/// one is slow changes within seconds. Items that run on every core in turn
/// give each item's median the same mix of cores in every run, where the
/// scheduler would leave a thread on whichever core it happened to pick.
void pin_next_cpu();

/// Peak resident set of this process or its largest reaped child, MiB.
double peak_rss_mb();

/// First 16 hex digits of SHA-256.
std::string digest(std::string_view bytes);

/// The JSON text of the "result" member of a success envelope ("" when
/// absent).
std::string response_result(const std::string& line);
/// A numeric member of the "result" object of a response line (0 if absent).
double result_number(const std::string& line, const char* key);
bool response_ok(const std::string& line);

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::uint64_t req_id = 0;  ///< generator index of the item the span serves
  double dur() const { return end_us - start_us; }
};

/// In-memory span store. add() is thread-safe.
class SpanLog {
 public:
  std::size_t add(Span s);
  /// Durations of every span named @p name, microseconds.
  std::vector<double> durations(const std::string& name) const;
  /// Duration minus the time covered by child spans, per span named @p name.
  std::vector<double> self_times(const std::string& name) const;
  /// One line per span: name start_us end_us parent req_id.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RequestHandler decorator: runs each request on the next CPU of the
/// rotation (pin_next_cpu), so a service thread cannot sit on one slow core.
class RotatingHandler final : public am::service::RequestHandler {
 public:
  explicit RotatingHandler(am::service::RequestHandler& inner) : inner_(inner) {}
  am::service::HandleResult handle(const am::service::Request& r,
                                   std::string_view raw,
                                   const am::service::RequestContext* ctx) override {
    pin_next_cpu();
    return inner_.handle(r, raw, ctx);
  }
  void append_stats(am::JsonWriter& w) const override { inner_.append_stats(w); }
  void on_drain() override { inner_.on_drain(); }

 private:
  am::service::RequestHandler& inner_;
};

/// RequestHandler decorator: times inner.handle() for requests whose line
/// hash is even (the odd half is the untraced control for the tracing
/// overhead) and parks the span for the client thread that sent the line.
class TimedHandler final : public am::service::RequestHandler {
 public:
  explicit TimedHandler(am::service::RequestHandler& inner) : inner_(inner) {}

  static bool traced(std::string_view line);

  am::service::HandleResult handle(const am::service::Request& r,
                                   std::string_view raw,
                                   const am::service::RequestContext* ctx) override;
  void append_stats(am::JsonWriter& w) const override { inner_.append_stats(w); }
  void on_drain() override { inner_.on_drain(); }

  struct Timing {
    double start_us = 0.0;
    double end_us = 0.0;
    bool cache_hit = false;
  };
  /// Removes and returns a parked timing for @p line (false when none).
  bool take(std::string_view line, Timing* out);

 private:
  am::service::RequestHandler& inner_;
  std::mutex mu_;
  std::unordered_multimap<std::uint64_t, Timing> parked_;
};

/// ExecutionBackend decorator: forwards to @p inner and stores the host time
/// of each run (microseconds) in @p *run_us.
class TimedBackend final : public am::bench::ExecutionBackend {
 public:
  TimedBackend(std::unique_ptr<am::bench::ExecutionBackend> inner,
               double* run_us)
      : inner_(std::move(inner)), run_us_(run_us) {
    inner_->set_run_recorder(&discard_);
  }
  std::string name() const override { return inner_->name(); }
  std::string machine_name() const override { return inner_->machine_name(); }
  std::uint32_t max_threads() const override { return inner_->max_threads(); }
  double freq_ghz() const override { return inner_->freq_ghz(); }
  std::string cache_identity() const override {
    return inner_->cache_identity();
  }

 private:
  am::bench::MeasuredRun do_run(const am::bench::WorkloadConfig& c) override;

  std::unique_ptr<am::bench::ExecutionBackend> inner_;
  double* run_us_;
  std::vector<am::bench::RecordedRun> discard_;
};

/// Answers model::calibrate's probes from client samples, the way the
/// calibrate request kind does (zero ops for an unmeasured probe).
class SampleBackend final : public am::bench::ExecutionBackend {
 public:
  explicit SampleBackend(const am::service::CalibrateQuery& q);
  std::string name() const override { return "client"; }
  std::string machine_name() const override { return machine_; }
  std::uint32_t max_threads() const override { return cores_; }
  double freq_ghz() const override { return freq_ghz_; }

 private:
  am::bench::MeasuredRun do_run(const am::bench::WorkloadConfig& c) override;

  std::string machine_;
  std::uint32_t cores_ = 1;
  double freq_ghz_ = 1.0;
  std::map<std::tuple<bool, am::Primitive, std::uint32_t>, double> samples_;
};

/// Sends @p n request lines over @p connections closed loops that share one
/// cursor: each connection sends the next unsent line once its previous
/// response arrived. @p on_done runs on the connection's thread with the
/// item index, the response line (no '\n') and the send/receive times.
/// Returns the number of transport failures.
std::uint64_t closed_loop(
    const am::service::Endpoint& ep, std::size_t n, unsigned connections,
    const std::function<const std::string&(std::size_t)>& line_of,
    const std::function<void(std::size_t, std::string&&, double, double)>&
        on_done);

/// What one run reports back to run.py.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string golden;  ///< golden file the digests are checked against
  std::map<std::uint32_t, std::string> digests;  ///< variant -> digest
  std::vector<std::string> errors;  ///< first few failure descriptions
  void fail(const std::string& what, std::uint64_t count = 1);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_binary;  ///< am_serve executable for fleet workers
  std::string runtime_dir;    ///< directory for fleet worker sockets
  std::string spans_path;     ///< where traced runs write their spans
};

Result run_serve_cold(const Options& o);
Result run_serve_warm_fleet(const Options& o);
Result run_batch_sim(const Options& o);

/// Digest of every variant's round, computed without transport.
std::map<std::uint32_t, std::string> bless_serve(unsigned threads);
std::map<std::uint32_t, std::string> bless_batch(unsigned threads);

/// Model throughput MAPE (percent) of the T3 default validation grid as
/// batch_sim computes it, and as model::validate computes it, for @p machine.
std::pair<double, double> mape_selftest(const std::string& machine);

/// Digest of every input a run with these options would send or run.
std::string serve_inputs_digest(const Options& o);
std::string batch_inputs_digest(const Options& o);

}  // namespace perfbench
