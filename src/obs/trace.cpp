#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/json.hpp"

namespace am::obs {

namespace {

// Local name tables: this layer sits below am_sim/am_atomics, so it keeps
// its own copies of the display names (values match to_string(Primitive)
// and to_string(sim::Supply); the trace tests pin them together).
const char* prim_name(std::uint8_t p) noexcept {
  static constexpr const char* kNames[] = {"LOAD", "STORE",   "SWP",  "TAS",
                                           "FAA",  "CAS",     "CASLOOP",
                                           "FENCE"};
  return p < 8 ? kNames[p] : "?";
}

const char* supply_name(std::uint8_t s) noexcept {
  static constexpr const char* kNames[] = {"local-hit", "near", "far",
                                           "memory"};
  return s < 4 ? kNames[s] : "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// TextTraceSink
// ---------------------------------------------------------------------------

void TextTraceSink::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kIssue:
      os_ << e.time << " issue core" << e.core << ' ' << prim_name(e.prim)
          << " line=" << e.line << '\n';
      break;
    case TraceEventKind::kGrant:
      os_ << e.time << " grant line=" << e.line << " -> core" << e.core << ' '
          << supply_name(e.supply) << " xfer=" << e.xfer_cycles
          << " q=" << e.queue_depth << '\n';
      break;
    case TraceEventKind::kOpDone:
      os_ << e.time << " done  core" << e.core << ' ' << prim_name(e.prim)
          << " line=" << e.line << " ok=" << (e.success ? 1 : 0)
          << " val=" << e.value << '\n';
      break;
    case TraceEventKind::kRetry:
      os_ << e.time << " retry core" << e.core << ' ' << prim_name(e.prim)
          << " line=" << e.line << " val=" << e.value << '\n';
      break;
    case TraceEventKind::kInvalidate:
      os_ << e.time << " inval line=" << e.line << " core" << e.core << '\n';
      break;
    case TraceEventKind::kEvict:
      os_ << e.time << " evict line=" << e.line << " core" << e.core << '\n';
      break;
    case TraceEventKind::kDrain:
      os_ << e.time << " drain core" << e.core << " line=" << e.line
          << " val=" << e.value << " depth=" << e.queue_depth << '\n';
      break;
  }
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kCoresPid = 1;
constexpr std::uint32_t kLinesPid = 2;
}  // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(os) {
  os_ << "[";
}

ChromeTraceSink::~ChromeTraceSink() { finish(); }

void ChromeTraceSink::finish() {
  if (finished_) return;
  finished_ = true;
  os_ << "\n]\n";
  os_.flush();
}

void ChromeTraceSink::emit_prefix(const char* ph, const char* name,
                                  const char* cat, std::uint64_t ts,
                                  std::uint32_t pid, std::uint64_t tid) {
  os_ << (first_event_ ? "\n" : ",\n");
  first_event_ = false;
  os_ << "{\"name\":\"" << name << "\",\"cat\":\"" << cat << "\",\"ph\":\""
      << ph << "\",\"ts\":" << ts << ",\"pid\":" << pid << ",\"tid\":" << tid;
  max_ts_ = std::max(max_ts_, ts);
}

void ChromeTraceSink::ensure_track(std::uint32_t pid, std::uint64_t tid,
                                   const char* prefix) {
  const std::uint64_t key = (static_cast<std::uint64_t>(pid) << 56) ^ tid;
  if (!named_tracks_.insert(key).second) return;
  emit_prefix("M", "thread_name", "__metadata", 0, pid, tid);
  os_ << ",\"args\":{\"name\":\"" << prefix << ' ' << tid << "\"}}";
}

void ChromeTraceSink::on_run_begin(const TraceRunInfo& info) {
  if (named_tracks_.empty()) {
    emit_prefix("M", "process_name", "__metadata", 0, kCoresPid, 0);
    os_ << ",\"args\":{\"name\":\"cores\"}}";
    emit_prefix("M", "process_name", "__metadata", 0, kLinesPid, 0);
    os_ << ",\"args\":{\"name\":\"lines\"}}";
  }
  // Lay runs out back to back with a visible gap between them.
  base_ = max_ts_ == 0 ? 0 : max_ts_ + 1000;
  emit_prefix("i", "run_begin", "run", base_, kCoresPid, 0);
  os_ << ",\"s\":\"g\",\"args\":{\"machine\":\"" << json_escape(info.machine)
      << "\",\"active_cores\":" << info.active_cores
      << ",\"warmup_cycles\":" << info.warmup_cycles
      << ",\"measure_cycles\":" << info.measure_cycles << "}}";
}

void ChromeTraceSink::on_run_end() {}

void ChromeTraceSink::on_event(const TraceEvent& e) {
  const std::uint64_t ts = base_ + e.time;
  switch (e.kind) {
    case TraceEventKind::kIssue:
    case TraceEventKind::kRetry: {
      // Flow start: an arrow from the request to the grant that serves it.
      ensure_track(kCoresPid, e.core, "core");
      emit_prefix("s", "req", "flow", ts, kCoresPid, e.core);
      os_ << ",\"id\":" << e.req_id << "}";
      if (e.kind == TraceEventKind::kRetry) {
        emit_prefix("i", "CAS retry", "op", ts, kCoresPid, e.core);
        os_ << ",\"s\":\"t\",\"args\":{\"line\":" << e.line
            << ",\"value\":" << e.value << "}}";
        if (e.hold_cycles > 0) {
          // The failed attempt still held the line slot; show the hold.
          ensure_track(kLinesPid, e.line, "line");
          emit_prefix("X", supply_name(e.supply), "hold",
                      ts - std::min(ts, e.hold_cycles), kLinesPid, e.line);
          os_ << ",\"dur\":" << std::max<std::uint64_t>(1, e.hold_cycles)
              << ",\"args\":{\"core\":" << e.core << ",\"ok\":false}}";
        }
      }
      break;
    }
    case TraceEventKind::kGrant: {
      // Flow finish lands on the line's track: request -> line hand-off.
      ensure_track(kLinesPid, e.line, "line");
      emit_prefix("f", "req", "flow", ts, kLinesPid, e.line);
      os_ << ",\"bp\":\"e\",\"id\":" << e.req_id << "}";
      break;
    }
    case TraceEventKind::kOpDone: {
      ensure_track(kCoresPid, e.core, "core");
      const std::uint64_t lat = std::max<std::uint64_t>(1, e.latency);
      emit_prefix("X", prim_name(e.prim), "op", ts - std::min(ts, e.latency),
                  kCoresPid, e.core);
      os_ << ",\"dur\":" << lat << ",\"args\":{\"line\":" << e.line
          << ",\"ok\":" << (e.success ? "true" : "false")
          << ",\"value\":" << e.value << ",\"req_id\":" << e.req_id << "}}";
      if (e.hold_cycles > 0) {
        ensure_track(kLinesPid, e.line, "line");
        emit_prefix("X", supply_name(e.supply), "hold",
                    ts - std::min(ts, e.hold_cycles), kLinesPid, e.line);
        os_ << ",\"dur\":" << std::max<std::uint64_t>(1, e.hold_cycles)
            << ",\"args\":{\"core\":" << e.core << "}}";
      }
      break;
    }
    case TraceEventKind::kInvalidate: {
      ensure_track(kLinesPid, e.line, "line");
      emit_prefix("i", "invalidate", "coherence", ts, kLinesPid, e.line);
      os_ << ",\"s\":\"t\",\"args\":{\"core\":" << e.core << "}}";
      break;
    }
    case TraceEventKind::kEvict: {
      ensure_track(kLinesPid, e.line, "line");
      emit_prefix("i", "evict", "coherence", ts, kLinesPid, e.line);
      os_ << ",\"s\":\"t\",\"args\":{\"core\":" << e.core << "}}";
      break;
    }
    case TraceEventKind::kDrain: {
      ensure_track(kLinesPid, e.line, "line");
      emit_prefix("i", "sbuf drain", "coherence", ts, kLinesPid, e.line);
      os_ << ",\"s\":\"t\",\"args\":{\"core\":" << e.core
          << ",\"value\":" << e.value << ",\"depth\":" << e.queue_depth
          << "}}";
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// SynchronizedTraceSink
// ---------------------------------------------------------------------------

void SynchronizedTraceSink::on_run_begin(const TraceRunInfo& info) {
  const std::lock_guard<std::mutex> lock(mu_);
  inner_.on_run_begin(info);
}

void SynchronizedTraceSink::on_event(const TraceEvent& event) {
  const std::lock_guard<std::mutex> lock(mu_);
  inner_.on_event(event);
}

void SynchronizedTraceSink::on_run_end() {
  const std::lock_guard<std::mutex> lock(mu_);
  inner_.on_run_end();
}

// ---------------------------------------------------------------------------
// ChromeTraceFileSink
// ---------------------------------------------------------------------------

ChromeTraceFileSink::ChromeTraceFileSink(const std::string& path)
    : file_(path) {
  if (file_) sink_ = std::make_unique<ChromeTraceSink>(file_);
}

ChromeTraceFileSink::~ChromeTraceFileSink() {
  sink_.reset();  // writes the closing bracket before the file closes
}

void ChromeTraceFileSink::on_run_begin(const TraceRunInfo& info) {
  if (sink_) sink_->on_run_begin(info);
}

void ChromeTraceFileSink::on_event(const TraceEvent& event) {
  if (sink_) sink_->on_event(event);
}

void ChromeTraceFileSink::on_run_end() {
  if (sink_) sink_->on_run_end();
}

}  // namespace am::obs
