#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/rolling.hpp"

namespace am::service {

namespace {

// Process-wide shutdown self-pipe. Signal handlers may only call
// async-signal-safe functions; write(2) on a pre-created pipe qualifies,
// poll(2) on its read end wakes the poller. Created once, on first use.
std::atomic<int> g_shutdown_write{-1};
int g_shutdown_read = -1;

void ensure_shutdown_pipe() {
  if (g_shutdown_write.load(std::memory_order_acquire) >= 0) return;
  int fds[2];
  if (::pipe(fds) != 0) return;
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  g_shutdown_read = fds[0];
  g_shutdown_write.store(fds[1], std::memory_order_release);
}

void drain_fd(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Server-side instruments plus the rolling-window machinery. Instruments
/// live in the process-wide default registry — one scrape shows request
/// counters next to the simulator/sweep/cache counters the handlers bump —
/// and are interned once here; the per-request cost is relaxed fetch-adds.
struct Server::Telemetry {
  explicit Telemetry(obs::metrics::Registry& reg) : windows(reg) {
    namespace m = obs::metrics;
    static constexpr const char* kKinds[kRequestKindCount] = {
        "predict", "advise", "calibrate", "simulate",
        "stats",   "ping",   "metrics",   "run_guest"};
    for (std::size_t i = 0; i < kRequestKindCount; ++i) {
      by_kind[i] =
          &reg.counter("am_server_requests_total", "Requests handled, by kind",
                       {{"kind", kKinds[i]}});
    }
    responses = &reg.counter("am_server_responses_total",
                             "Response lines written (incl. parse errors)");
    parse_errors = &reg.counter("am_server_parse_errors_total",
                                "Request lines that failed to parse");
    handler_errors = &reg.counter("am_server_handler_errors_total",
                                  "Parsed requests answered with an error");
    cache_hit_responses =
        &reg.counter("am_server_cache_hit_responses_total",
                     "Responses served from the prediction cache");
    accepted = &reg.counter("am_server_connections_accepted_total",
                            "Client connections accepted");
    slow_requests = &reg.counter(
        "am_server_slow_requests_total",
        "Requests over the --slow-request-us latency threshold");
    latency = &reg.histogram("am_server_request_latency_us",
                             "Service latency per request (microseconds)");
    active_connections =
        &reg.gauge("am_server_active_connections", "Open client connections");
    uptime_seconds =
        &reg.gauge("am_server_uptime_seconds", "Seconds since start()");
    // The cache / simulator counters consulted for derived scrape families;
    // interning here guarantees they exist even before any handler ran.
    cache_hits = &reg.counter("am_cache_hits_total",
                              "Prediction-cache lookups served from memory");
    cache_misses =
        &reg.counter("am_cache_misses_total",
                     "Prediction-cache lookups that fell through");
    sim_cycles = &reg.counter("am_sim_cycles_total",
                              "Simulated cycles elapsed across all runs");
  }

  obs::metrics::Counter* by_kind[kRequestKindCount] = {};
  obs::metrics::Counter* responses = nullptr;
  obs::metrics::Counter* parse_errors = nullptr;
  obs::metrics::Counter* handler_errors = nullptr;
  obs::metrics::Counter* cache_hit_responses = nullptr;
  obs::metrics::Counter* accepted = nullptr;
  obs::metrics::Counter* slow_requests = nullptr;
  obs::metrics::Histogram* latency = nullptr;
  obs::metrics::Gauge* active_connections = nullptr;
  obs::metrics::Gauge* uptime_seconds = nullptr;
  obs::metrics::Counter* cache_hits = nullptr;
  obs::metrics::Counter* cache_misses = nullptr;
  obs::metrics::Counter* sim_cycles = nullptr;

  obs::metrics::RollingWindows windows;
  std::thread sampler;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
};

Server::Server(RequestHandler& handler, ServerConfig config)
    : handler_(handler), config_(std::move(config)) {
  if (config_.service_threads == 0) config_.service_threads = 1;
  ensure_shutdown_pipe();
}

Server::~Server() {
  wait();
  for (const int fd : listen_fds_) ::close(fd);
  for (const Endpoint& ep : bound_) {
    if (ep.kind == Endpoint::Kind::kUnix) ::unlink(ep.path.c_str());
  }
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Server::request_shutdown() noexcept {
  const int fd = g_shutdown_write.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

bool Server::start(std::string* error) {
  if (config_.listen.empty()) {
    if (error != nullptr) *error = "no endpoints to listen on";
    return false;
  }
  if (g_shutdown_read < 0) {
    if (error != nullptr) *error = "cannot create shutdown pipe";
    return false;
  }
  drain_fd(g_shutdown_read);  // stale requests from a previous server
  if (::pipe(wake_pipe_) != 0) {
    if (error != nullptr) *error = "cannot create wakeup pipe";
    return false;
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  for (const Endpoint& ep : config_.listen) {
    const int fd = listen_on(ep, error);
    if (fd < 0) {
      for (const int open : listen_fds_) ::close(open);
      listen_fds_.clear();
      bound_.clear();
      return false;
    }
    set_nonblocking(fd);
    listen_fds_.push_back(fd);
    Endpoint resolved = ep;
    if (resolved.kind == Endpoint::Kind::kTcp && resolved.port == 0) {
      resolved.port = bound_port(fd);
    }
    bound_.push_back(resolved);
  }

  start_time_ = std::chrono::steady_clock::now();
  if (config_.metrics) {
    telemetry_ = std::make_unique<Telemetry>(obs::metrics::default_registry());
    telemetry_->windows.sample(0);  // t=0 baseline: windows answer from boot
    telemetry_->sampler = std::thread([this] {
      Telemetry& t = *telemetry_;
      std::unique_lock<std::mutex> lock(t.mu);
      while (!t.stop) {
        t.cv.wait_for(lock, std::chrono::milliseconds(250));
        if (t.stop) break;
        lock.unlock();
        t.windows.sample(uptime_ms());
        lock.lock();
      }
    });
  }
  for (unsigned i = 0; i < config_.service_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  poller_ = std::thread([this] { poll_loop(); });
  started_ = true;
  return true;
}

void Server::wait() {
  if (!started_ || joined_) return;
  poller_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  if (telemetry_ != nullptr && telemetry_->sampler.joinable()) {
    {
      std::lock_guard<std::mutex> lock(telemetry_->mu);
      telemetry_->stop = true;
    }
    telemetry_->cv.notify_all();
    telemetry_->sampler.join();
  }
  joined_ = true;
}

std::uint64_t Server::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void Server::poll_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  std::uint32_t next_conn_id = 1;

  for (;;) {
    fds.clear();
    polled.clear();
    fds.push_back({g_shutdown_read, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    bool any_busy = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!draining_) {
        for (const int fd : listen_fds_) fds.push_back({fd, POLLIN, 0});
      }
      for (const auto& conn : connections_) {
        if (conn->busy || !conn->pending.empty()) any_busy = true;
        // While draining, stop reading request bytes entirely: in-flight and
        // already-received requests finish, but a closed-loop client cannot
        // keep the drain alive by sending more.
        if (!conn->busy && !conn->close_after && !draining_) {
          fds.push_back({conn->fd, POLLIN, 0});
          polled.push_back(conn);
        }
      }
      if (draining_ && !any_busy) {
        // Drained: nothing in flight, nothing queued. Idle connections are
        // closed here rather than served further.
        for (const auto& conn : connections_) ::close(conn->fd);
        connections_.clear();
        return;
      }
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (rc < 0 && errno != EINTR) return;

    if ((fds[0].revents & POLLIN) != 0) {
      drain_fd(g_shutdown_read);
      bool entered_drain = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!draining_) {
          draining_ = true;
          entered_drain = true;
          for (const int fd : listen_fds_) ::close(fd);
          listen_fds_.clear();
        }
      }
      // Outside mu_: a forwarding handler's drain may block on its workers.
      if (entered_drain) handler_.on_drain();
      continue;  // re-evaluate: maybe nothing is in flight and we can exit
    }

    if ((fds[1].revents & POLLIN) != 0) {
      drain_fd(wake_pipe_[0]);
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        Connection& conn = **it;
        if (conn.done) {
          conn.done = false;
          conn.busy = false;
          if (!conn.pending.empty()) dispatch_locked(conn);
        }
        if (!conn.busy && conn.pending.empty() && conn.close_after) {
          ::close(conn.fd);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      continue;
    }

    // Accept on every ready listener (index offset: shutdown + wake pipes,
    // then listeners in order — only when not draining).
    std::size_t idx = 2;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!draining_) {
        for (std::size_t i = 0; i < listen_fds_.size(); ++i, ++idx) {
          if ((fds[idx].revents & POLLIN) == 0) continue;
          for (;;) {
            const int cfd = ::accept(listen_fds_[i], nullptr, nullptr);
            if (cfd < 0) break;
            set_nonblocking(cfd);
            auto conn = std::make_shared<Connection>();
            conn->fd = cfd;
            conn->id = next_conn_id++;
            connections_.push_back(std::move(conn));
            {
              std::lock_guard<std::mutex> slock(stats_mu_);
              ++accepted_;
            }
            if (telemetry_ != nullptr) telemetry_->accepted->inc();
          }
        }
      }
    }

    for (std::size_t p = 0; p < polled.size(); ++p, ++idx) {
      if (idx >= fds.size()) break;
      if ((fds[idx].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      handle_readable(*polled[p]);
    }
  }
}

void Server::handle_readable(Connection& conn) {
  char buf[16384];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.buffer.append(buf, static_cast<std::size_t>(n));
      if (conn.buffer.size() > config_.max_line_bytes) {
        // Oversized line: answer once, then hang up. The buffer cannot be
        // resynchronized to the next line boundary reliably.
        write_all(conn.fd,
                  make_error_response("", errcode::kRequestTooLarge,
                                      "request line exceeds " +
                                          std::to_string(
                                              config_.max_line_bytes) +
                                          " bytes"));
        eof = true;
        break;
      }
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;
    break;
  }

  std::lock_guard<std::mutex> lock(mu_);
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn.buffer.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn.buffer.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) conn.pending.push_back(std::move(line));
    start = nl + 1;
  }
  conn.buffer.erase(0, start);
  if (eof) conn.close_after = true;
  if (!conn.busy && !conn.pending.empty()) dispatch_locked(conn);
  if (eof && !conn.busy && conn.pending.empty()) {
    for (auto it = connections_.begin(); it != connections_.end(); ++it) {
      if (it->get() == &conn) {
        ::close(conn.fd);
        connections_.erase(it);
        break;
      }
    }
  }
}

void Server::dispatch_locked(Connection& conn) {
  conn.busy = true;
  for (const auto& c : connections_) {
    if (c.get() == &conn) {
      job_queue_.push_back(c);
      break;
    }
  }
  job_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [this] { return stop_workers_ || !job_queue_.empty(); });
      if (job_queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      conn = std::move(job_queue_.front());
      job_queue_.pop_front();
    }
    process(std::move(conn));
  }
}

void Server::process(std::shared_ptr<Connection> conn) {
  std::string line;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn->pending.empty()) {
      conn->done = true;
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
      return;
    }
    line = std::move(conn->pending.front());
    conn->pending.pop_front();
  }

  const auto t0 = std::chrono::steady_clock::now();
  // The request id is minted when the line is dequeued, before any handler
  // runs, so the trace events a simulate emits mid-flight and the request's
  // own issue/done span agree on the id.
  std::uint64_t req_id = 0;
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    req_id = ++next_req_id_;
  }
  std::string response;
  RequestKind kind = RequestKind::kPing;
  bool ok = true;
  bool cache_hit = false;

  std::string parse_error;
  const std::optional<Request> request = parse_request(line, &parse_error);
  if (!request.has_value()) {
    response = make_error_response("", errcode::kBadRequest, parse_error);
    ok = false;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++parse_errors_;
  } else {
    kind = request->kind;
    if (request->kind == RequestKind::kStats) {
      response = make_result_response(*request, stats_json());
    } else if (request->kind == RequestKind::kMetrics) {
      // Prometheus text travels inside the JSON envelope: the protocol stays
      // one-line-JSON-per-request, scrapers unwrap result.text.
      std::string body = "{\"content_type\":\"text/plain; version=0.0.4\","
                         "\"text\":\"";
      body += json_escape(metrics_text());
      body += "\"}";
      response = make_result_response(*request, body);
    } else {
      const RequestContext ctx{req_id, config_.trace};
      HandleResult result = handler_.handle(*request, line, &ctx);
      response = std::move(result.response);
      ok = result.ok;
      cache_hit = result.cache_hit;
    }
  }

  write_all(conn->fd, response);
  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  record_request(kind, request.has_value(), ok, cache_hit, latency_us,
                 conn->id, req_id);
  if (config_.slow_request_us > 0.0 && latency_us >= config_.slow_request_us) {
    if (telemetry_ != nullptr) telemetry_->slow_requests->inc();
    // One structured line per slow request; req_id is the join key into the
    // trace file.
    std::fprintf(stderr,
                 "{\"slow_request\":true,\"req_id\":%llu,\"kind\":\"%s\","
                 "\"conn\":%u,\"latency_us\":%.1f,\"ok\":%s,"
                 "\"threshold_us\":%.1f}\n",
                 static_cast<unsigned long long>(req_id),
                 request.has_value() ? to_string(kind) : "parse_error",
                 conn->id, latency_us, ok ? "true" : "false",
                 config_.slow_request_us);
  }

  std::lock_guard<std::mutex> lock(mu_);
  conn->done = true;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::record_request(RequestKind kind, bool parsed, bool ok,
                            bool cache_hit, double latency_us,
                            std::uint32_t conn_id, std::uint64_t req_id) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    // Unparseable lines have no kind; they are tallied as parse_errors only.
    if (parsed) ++requests_by_kind_[static_cast<std::size_t>(kind)];
    if (parsed && !ok) ++handler_errors_;
    latency_us_.add(latency_us);
  }
  if (telemetry_ != nullptr) {
    Telemetry& t = *telemetry_;
    t.responses->inc();
    if (parsed) {
      t.by_kind[static_cast<std::size_t>(kind)]->inc();
      if (!ok) t.handler_errors->inc();
    } else {
      t.parse_errors->inc();
    }
    if (cache_hit) t.cache_hit_responses->inc();
    t.latency->observe(
        static_cast<std::uint64_t>(latency_us < 0.0 ? 0.0 : latency_us));
  }
  if (config_.trace != nullptr) {
    // One issue/done pair per request on the structured trace seam: the
    // connection plays the core, the request kind the primitive, and the
    // service latency the op latency (microseconds on the cycle axis).
    const auto now_us = static_cast<std::uint64_t>(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_time_)
            .count());
    obs::TraceEvent issue;
    issue.kind = obs::TraceEventKind::kIssue;
    issue.time = now_us - static_cast<std::uint64_t>(latency_us);
    issue.core = conn_id;
    issue.req_id = req_id;
    issue.prim = static_cast<std::uint8_t>(kind);
    obs::TraceEvent done = issue;
    done.kind = obs::TraceEventKind::kOpDone;
    done.time = now_us;
    done.success = ok;
    done.latency = static_cast<std::uint64_t>(latency_us);
    std::lock_guard<std::mutex> lock(stats_mu_);
    config_.trace->on_event(issue);
    config_.trace->on_event(done);
  }
}

std::string Server::stats_json() const {
  std::uint64_t by_kind[kRequestKindCount];
  std::uint64_t parse_errors = 0;
  std::uint64_t handler_errors = 0;
  std::uint64_t accepted = 0;
  double uptime_s = 0.0;
  double lat_count = 0.0, lat_mean = 0.0, lat_p50 = 0.0, lat_p90 = 0.0,
         lat_p99 = 0.0, lat_min = 0.0, lat_max = 0.0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (std::size_t i = 0; i < kRequestKindCount; ++i) {
      by_kind[i] = requests_by_kind_[i];
    }
    parse_errors = parse_errors_;
    handler_errors = handler_errors_;
    accepted = accepted_;
    uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_time_)
                   .count();
    lat_count = static_cast<double>(latency_us_.total_count());
    if (latency_us_.total_count() > 0) {
      lat_mean = latency_us_.mean();
      lat_p50 = latency_us_.value_at_percentile(50.0);
      lat_p90 = latency_us_.value_at_percentile(90.0);
      lat_p99 = latency_us_.value_at_percentile(99.0);
      lat_min = latency_us_.observed_min();
      lat_max = latency_us_.observed_max();
    }
  }
  std::size_t active = 0;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = connections_.size();
    draining = draining_;
  }

  std::uint64_t total = 0;
  for (const std::uint64_t n : by_kind) total += n;
  total += parse_errors;

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "am-serve-stats/1");
  w.kv("uptime_s", uptime_s);
  // Lifetime average — misleading for a long-lived daemon with bursty load
  // (it decays towards zero between bursts), kept for compatibility. The
  // rolling-window rates next to it are what dashboards should read.
  w.kv("qps", uptime_s > 0.0 ? static_cast<double>(total) / uptime_s : 0.0);
  {
    const double lifetime =
        uptime_s > 0.0 ? static_cast<double>(total) / uptime_s : 0.0;
    double q1 = lifetime, q10 = lifetime, q60 = lifetime;
    if (telemetry_ != nullptr) {
      const std::uint64_t now = uptime_ms();
      if (const auto d = telemetry_->windows.delta(*telemetry_->responses,
                                                   1.0, now)) {
        q1 = d->rate();
      }
      if (const auto d = telemetry_->windows.delta(*telemetry_->responses,
                                                   10.0, now)) {
        q10 = d->rate();
      }
      if (const auto d = telemetry_->windows.delta(*telemetry_->responses,
                                                   60.0, now)) {
        q60 = d->rate();
      }
    }
    w.kv("qps_1s", q1);
    w.kv("qps_10s", q10);
    w.kv("qps_60s", q60);
  }
  w.key("requests").begin_object();
  w.kv("total", total);
  w.kv("predict", by_kind[static_cast<std::size_t>(RequestKind::kPredict)]);
  w.kv("advise", by_kind[static_cast<std::size_t>(RequestKind::kAdvise)]);
  w.kv("calibrate",
       by_kind[static_cast<std::size_t>(RequestKind::kCalibrate)]);
  w.kv("simulate", by_kind[static_cast<std::size_t>(RequestKind::kSimulate)]);
  w.kv("stats", by_kind[static_cast<std::size_t>(RequestKind::kStats)]);
  w.kv("ping", by_kind[static_cast<std::size_t>(RequestKind::kPing)]);
  w.kv("metrics", by_kind[static_cast<std::size_t>(RequestKind::kMetrics)]);
  w.kv("run_guest", by_kind[static_cast<std::size_t>(RequestKind::kRunGuest)]);
  w.kv("parse_errors", parse_errors);
  w.kv("handler_errors", handler_errors);
  w.end_object();
  w.key("latency_us").begin_object();
  w.kv("count", lat_count);
  w.kv("mean", lat_mean);
  w.kv("p50", lat_p50);
  w.kv("p90", lat_p90);
  w.kv("p99", lat_p99);
  w.kv("min", lat_min);
  w.kv("max", lat_max);
  w.end_object();
  handler_.append_stats(w);  // "cache" for ServiceCore, "fleet" for a router
  w.key("connections").begin_object();
  w.kv("accepted", accepted);
  w.kv("active", std::uint64_t{active});
  w.end_object();
  w.kv("service_threads", std::uint64_t{config_.service_threads});
  w.kv("draining", draining);
  w.end_object();
  return os.str();
}

std::string Server::metrics_text() const {
  namespace m = obs::metrics;
  if (telemetry_ != nullptr) {
    // Point-in-time gauges refresh at scrape time — there is no sampler for
    // values that are cheap to read exactly.
    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      active = connections_.size();
    }
    telemetry_->active_connections->set(static_cast<double>(active));
    telemetry_->uptime_seconds->set(static_cast<double>(uptime_ms()) /
                                    1000.0);
  }

  std::string out;
  m::PromWriter w(out);
  m::render_prometheus(m::default_registry(), w);
  if (telemetry_ == nullptr) return out;

  // Derived rolling-window families. These are scrape-time arithmetic over
  // the snapshot ring — the write path never sees them.
  Telemetry& t = *telemetry_;
  const std::uint64_t now = uptime_ms();
  struct Win {
    const char* label;
    double seconds;
  };
  static constexpr Win kWins[] = {{"1s", 1.0}, {"10s", 10.0}, {"60s", 60.0}};

  w.family("am_qps", "Requests per second over a rolling window",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto d = t.windows.delta(*t.responses, win.seconds, now);
    w.sample("am_qps", {{"window", win.label}}, d ? d->rate() : 0.0);
  }

  w.family("am_request_latency_window_us",
           "Request latency quantiles over a rolling window (microseconds)",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto h = t.windows.histogram_delta(*t.latency, win.seconds, now);
    for (const double q : {50.0, 90.0, 99.0}) {
      char qbuf[32];
      std::snprintf(qbuf, sizeof qbuf, "%g", q / 100.0);
      w.sample("am_request_latency_window_us",
               {{"window", win.label}, {"quantile", qbuf}},
               h ? h->percentile(q) : 0.0);
    }
  }

  w.family("am_cache_hit_ratio",
           "Prediction-cache hit ratio over a rolling window",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto hits = t.windows.delta(*t.cache_hits, win.seconds, now);
    const auto misses = t.windows.delta(*t.cache_misses, win.seconds, now);
    const double h = hits ? static_cast<double>(hits->count) : 0.0;
    const double miss = misses ? static_cast<double>(misses->count) : 0.0;
    w.sample("am_cache_hit_ratio", {{"window", win.label}},
             h + miss > 0.0 ? h / (h + miss) : 0.0);
  }

  w.family("am_sim_cycles_per_second",
           "Simulated cycles retired per wall-clock second (rolling)",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto d = t.windows.delta(*t.sim_cycles, win.seconds, now);
    w.sample("am_sim_cycles_per_second", {{"window", win.label}},
             d ? d->rate() : 0.0);
  }
  return out;
}

}  // namespace am::service
