#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "bench_core/sim_backend.hpp"
#include "common/json.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"

namespace am::sim {
namespace {

/// Records every structured event plus the run bracketing calls.
struct CollectSink final : obs::TraceSink {
  std::vector<obs::TraceEvent> events;
  int begins = 0;
  int ends = 0;
  obs::TraceRunInfo last_info;

  void on_run_begin(const obs::TraceRunInfo& info) override {
    ++begins;
    last_info = info;
  }
  void on_event(const obs::TraceEvent& e) override { events.push_back(e); }
  void on_run_end() override { ++ends; }
};

TEST(Trace, EmitsGrantAndDoneLines) {
  Machine m(test_machine(2));
  std::ostringstream trace;
  obs::TextTraceSink sink(trace);
  m.set_sink(&sink);
  HighContentionProgram prog(Primitive::kFaa, 0);
  m.run(prog, 2, 0, 2'000);
  const std::string out = trace.str();
  EXPECT_NE(out.find("grant line=0"), std::string::npos);
  EXPECT_NE(out.find("done  core0 FAA line=0 ok=1"), std::string::npos);
  EXPECT_NE(out.find("done  core1 FAA"), std::string::npos);
  EXPECT_NE(out.find("near"), std::string::npos);  // a transfer happened
}

TEST(Trace, DisabledByDefaultAndDetachable) {
  Machine m(test_machine(2));
  std::ostringstream trace;
  obs::TextTraceSink sink(trace);
  m.set_sink(&sink);
  m.set_sink(nullptr);
  HighContentionProgram prog(Primitive::kFaa, 0);
  m.run(prog, 2, 0, 2'000);
  EXPECT_TRUE(trace.str().empty());
}

TEST(Trace, ValuesInTraceAreMonotoneForFaa) {
  Machine m(test_machine(1));
  std::ostringstream trace;
  obs::TextTraceSink sink(trace);
  m.set_sink(&sink);
  HighContentionProgram prog(Primitive::kFaa, 0);
  m.run(prog, 1, 0, 1'000);
  // Each "done ... val=k" line increments k.
  std::istringstream in(trace.str());
  std::string line;
  long prev = 0;
  while (std::getline(in, line)) {
    const auto pos = line.find("val=");
    if (pos == std::string::npos) continue;
    const long v = std::strtol(line.c_str() + pos + 4, nullptr, 10);
    EXPECT_EQ(v, prev + 1);
    prev = v;
  }
  EXPECT_GT(prev, 10);
}

TEST(StructuredTrace, BracketsRunsAndOrdersEvents) {
  Machine m(test_machine(2));
  CollectSink sink;
  m.set_sink(&sink);
  HighContentionProgram prog(Primitive::kFaa, 0);
  m.run(prog, 2, 0, 2'000);
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_EQ(sink.last_info.active_cores, 2u);
  EXPECT_EQ(sink.last_info.measure_cycles, 2'000u);
  ASSERT_FALSE(sink.events.empty());
  // Event times never go backwards: the machine emits in simulation order.
  std::uint64_t prev = 0;
  for (const auto& e : sink.events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(StructuredTrace, EveryRequestIssuesThenGrantsThenCompletes) {
  Machine m(test_machine(4));
  CollectSink sink;
  m.set_sink(&sink);
  HighContentionProgram prog(Primitive::kCasLoop, 0);
  m.run(prog, 4, 0, 3'000);

  // A request id is born at issue (or CAS retry) and served by exactly one
  // grant; completed ops reference a previously granted id. This is the
  // pairing the Chrome sink turns into flow arrows.
  std::map<std::uint64_t, std::uint64_t> requested;  // req_id -> time
  std::map<std::uint64_t, std::uint64_t> granted;
  std::set<std::uint64_t> done;
  for (const auto& e : sink.events) {
    switch (e.kind) {
      case obs::TraceEventKind::kIssue:
      case obs::TraceEventKind::kRetry:
        EXPECT_TRUE(requested.emplace(e.req_id, e.time).second)
            << "request id reused: " << e.req_id;
        break;
      case obs::TraceEventKind::kGrant: {
        const auto it = requested.find(e.req_id);
        ASSERT_NE(it, requested.end()) << "grant without issue: " << e.req_id;
        EXPECT_GE(e.time, it->second);
        EXPECT_TRUE(granted.emplace(e.req_id, e.time).second)
            << "request granted twice: " << e.req_id;
        break;
      }
      case obs::TraceEventKind::kOpDone: {
        const auto it = granted.find(e.req_id);
        ASSERT_NE(it, granted.end()) << "done without grant: " << e.req_id;
        EXPECT_GE(e.time, it->second);
        done.insert(e.req_id);
        break;
      }
      default:
        break;
    }
  }
  EXPECT_GT(done.size(), 10u);
  // CASLOOP on 4 cores retries, so there are more requests than ops.
  EXPECT_GT(requested.size(), done.size());
}

TEST(StructuredTrace, ChromeSinkEmitsValidTraceEvents) {
  std::ostringstream out;
  {
    Machine m(test_machine(2));
    obs::ChromeTraceSink chrome(out);
    m.set_sink(&chrome);
    HighContentionProgram prog(Primitive::kFaa, 0);
    m.run(prog, 2, 0, 2'000);
    chrome.finish();
  }
  std::string error;
  const auto doc = JsonValue::parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->type(), JsonValue::Type::kArray);
  ASSERT_GT(doc->size(), 0u);

  std::size_t complete = 0, flow_s = 0, flow_f = 0;
  for (const auto& e : doc->items()) {
    ASSERT_EQ(e.type(), JsonValue::Type::kObject);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") continue;  // metadata carries pid + args only
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->as_number(), 1.0);
    } else if (ph == "s") {
      ++flow_s;
      ASSERT_NE(e.find("id"), nullptr);
    } else if (ph == "f") {
      ++flow_f;
      ASSERT_NE(e.find("id"), nullptr);
    }
  }
  EXPECT_GT(complete, 0u);
  EXPECT_GT(flow_s, 0u);
  EXPECT_EQ(flow_s, flow_f);  // every request arrow lands on a grant
}

TEST(StructuredTrace, LineProfilerFindsTheHotLine) {
  Machine m(test_machine(4));
  m.set_line_profiling(true);
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats stats = m.run(prog, 4, 500, 4'000);
  ASSERT_FALSE(stats.line_profiles.empty());
  const LineProfile& hot = stats.line_profiles.front();
  EXPECT_EQ(hot.line, 0u);  // high contention hammers line 0
  EXPECT_GT(hot.acquisitions, 0u);
  EXPECT_GE(hot.accesses, hot.acquisitions);
  EXPECT_GT(hot.invalidations, 0u);  // 4 cores bounce the line
  EXPECT_GT(hot.mean_queue_depth(), 0.0);
  EXPECT_GE(hot.queue_depth_max, 1u);
  EXPECT_GT(hot.mean_hold_cycles(), 0.0);
  std::uint64_t supplied = 0;
  for (const auto s : hot.supply) supplied += s;
  EXPECT_EQ(supplied, hot.accesses);  // every access has a supply class
}

TEST(StructuredTrace, EpochSamplerCoversTheMeasureWindow) {
  Machine m(test_machine(4));
  m.set_epoch_cycles(500);
  HighContentionProgram prog(Primitive::kFaa, 0);
  const RunStats stats = m.run(prog, 4, 0, 2'000);
  EXPECT_EQ(stats.epoch_cycles, 500u);
  ASSERT_EQ(stats.epochs.size(), 4u);
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < stats.epochs.size(); ++i) {
    EXPECT_EQ(stats.epochs[i].start, i * 500u);
    ops += stats.epochs[i].ops;
  }
  EXPECT_EQ(ops, bench::to_measured_run(stats, "").total_ops());
  // Under saturation every epoch does work.
  for (const auto& e : stats.epochs) {
    EXPECT_GT(e.ops, 0u);
    EXPECT_GT(e.attempts, 0u);
    EXPECT_GE(e.outstanding_max, 1u);
  }
}

}  // namespace
}  // namespace am::sim
