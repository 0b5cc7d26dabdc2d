// Structured event tracing for the coherence simulator.
//
// The simulator's argument is about *seeing* the line hand-off process:
// which core held a line, how long waiters queued, which supply class
// served each transfer. TraceSink is the typed seam that exposes that
// process: the Machine emits one TraceEvent per protocol step and a sink
// renders them — as human-readable text (TextTraceSink) or as Chrome
// trace-event JSON (ChromeTraceSink) loadable in Perfetto /
// chrome://tracing, with one track per core, one per touched line, and flow
// arrows linking each request to its grant.
//
// The layer sits below the simulator: it depends only on POD identifiers
// (core/line ids are plain integers here), so am_sim can link against it
// without a dependency cycle. Event emission is guarded by a single
// null-pointer check in the Machine; with no sink attached tracing costs
// nothing on the hot path.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

namespace am::obs {

/// One step of the coherence hand-off process.
enum class TraceEventKind : std::uint8_t {
  kIssue,       ///< a core submits a request for a line
  kGrant,       ///< the directory (or a local fast path) serves the request
  kOpDone,      ///< the primitive completed (success or single-shot failure)
  kRetry,       ///< a CAS-loop attempt failed; the core re-requests the line
  kInvalidate,  ///< a core's copy was invalidated by another core's RFO
  kEvict,       ///< a core's copy left the cache for capacity reasons
  kDrain,       ///< a buffered store left the core's store buffer (TSO only)
};

/// Structured trace record. Field validity depends on `kind`; unused
/// fields are zero. Identifiers are plain integers so this header needs
/// nothing from the simulator.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kIssue;
  std::uint64_t time = 0;     ///< simulator cycle of the event
  std::uint32_t core = 0;     ///< acting / affected core
  std::uint64_t line = 0;     ///< cache line
  std::uint64_t req_id = 0;   ///< links issue -> grant -> done/retry chains
  std::uint8_t prim = 0;      ///< am::Primitive (issue/done/retry)
  std::uint8_t supply = 0;    ///< sim::Supply of the transfer (grant)
  bool success = false;       ///< op outcome (done)
  std::uint64_t value = 0;    ///< post-op line value (done/retry)
  std::uint64_t xfer_cycles = 0;  ///< transfer latency charged (grant)
  std::uint32_t queue_depth = 0;  ///< waiters left queued at grant time
  std::uint64_t latency = 0;      ///< issue -> completion cycles (done)
  std::uint64_t hold_cycles = 0;  ///< grant -> release cycles (done/retry)
};

/// Context for one Machine::run call; lets a single sink span a sweep of
/// runs (each run is laid out after the previous one on the timeline).
struct TraceRunInfo {
  std::string machine;            ///< machine/preset name
  std::uint32_t active_cores = 0;
  std::uint64_t warmup_cycles = 0;
  std::uint64_t measure_cycles = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_run_begin(const TraceRunInfo& info) { (void)info; }
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void on_run_end() {}
};

/// Human-readable one-line-per-event sink. The format is stable: the
/// golden traces under tests/sim/golden/ are byte-compared against it.
class TextTraceSink final : public TraceSink {
 public:
  explicit TextTraceSink(std::ostream& os) : os_(os) {}
  void on_event(const TraceEvent& event) override;

 private:
  std::ostream& os_;
};

/// Chrome trace-event JSON (the "JSON Array Format" chrome://tracing and
/// Perfetto load). Emits:
///   - `X` complete events on per-core tracks (pid 1): one per finished
///     operation, spanning issue -> completion;
///   - `X` complete events on per-line tracks (pid 2): one per line-slot
///     hold, named after the supply class that served the grant;
///   - `s`/`f` flow events linking each request's issue to its grant;
///   - `i` instant events for invalidations, evictions and CAS retries;
///   - `M` metadata events naming processes and tracks.
/// Timestamps are simulator cycles written as microseconds (1 cy == 1 us
/// on the viewer's axis). finish() closes the JSON array; the destructor
/// calls it if the owner did not.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  ~ChromeTraceSink() override;

  void on_run_begin(const TraceRunInfo& info) override;
  void on_event(const TraceEvent& event) override;
  void on_run_end() override;

  /// Writes the closing bracket. Idempotent.
  void finish();

 private:
  void emit_prefix(const char* ph, const char* name, const char* cat,
                   std::uint64_t ts, std::uint32_t pid, std::uint64_t tid);
  void ensure_track(std::uint32_t pid, std::uint64_t tid, const char* prefix);

  std::ostream& os_;
  bool finished_ = false;
  bool first_event_ = true;
  std::uint64_t base_ = 0;      ///< timeline offset of the current run
  std::uint64_t max_ts_ = 0;    ///< largest offset timestamp written
  std::unordered_set<std::uint64_t> named_tracks_;
};

/// Serializes a shared sink behind a mutex. Trace sinks are written for a
/// single simulator thread; a server whose worker pool runs concurrent
/// simulate requests against one trace file wraps the file sink in this so
/// whole run-begin/events/run-end spans interleave at event granularity
/// without corrupting the underlying stream.
class SynchronizedTraceSink final : public TraceSink {
 public:
  explicit SynchronizedTraceSink(TraceSink& inner) : inner_(inner) {}

  void on_run_begin(const TraceRunInfo& info) override;
  void on_event(const TraceEvent& event) override;
  void on_run_end() override;

 private:
  std::mutex mu_;
  TraceSink& inner_;
};

/// ChromeTraceSink bound to a file it owns. `ok()` is false when the file
/// could not be opened.
class ChromeTraceFileSink final : public TraceSink {
 public:
  explicit ChromeTraceFileSink(const std::string& path);
  ~ChromeTraceFileSink() override;

  bool ok() const noexcept { return static_cast<bool>(file_); }
  void on_run_begin(const TraceRunInfo& info) override;
  void on_event(const TraceEvent& event) override;
  void on_run_end() override;

 private:
  std::ofstream file_;
  std::unique_ptr<ChromeTraceSink> sink_;  ///< null when the open failed
};

}  // namespace am::obs
