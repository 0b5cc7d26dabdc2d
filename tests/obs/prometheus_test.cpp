// Exposition golden test and parser round-trip: the scrape text is a wire
// format, so its exact shape is pinned here — HELP/TYPE headers once per
// family, label escaping, cumulative histogram buckets with elided empty
// tail, and a parser that survives garbage lines.

#include "obs/prometheus.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace m = am::obs::metrics;

namespace {
std::string render(const m::Registry& reg) {
  std::string out;
  m::PromWriter w(out);
  m::render_prometheus(reg, w);
  return out;
}
}  // namespace

TEST(RenderPrometheus, GoldenOutput) {
  m::Registry reg;
  reg.counter("am_requests_total", "requests by kind", {{"kind", "ping"}})
      .inc(3);
  reg.counter("am_requests_total", "requests by kind", {{"kind", "stats"}})
      .inc(1);
  reg.gauge("am_uptime_seconds", "seconds since start").set(12.5);
  m::Histogram& h =
      reg.histogram("am_latency_us", "request latency, microseconds");
  h.observe(0);
  h.observe(3);
  h.observe(3);
  h.observe(1000);

  const std::string expected =
      "# HELP am_latency_us request latency, microseconds\n"
      "# TYPE am_latency_us histogram\n"
      "am_latency_us_bucket{le=\"0\"} 1\n"
      "am_latency_us_bucket{le=\"3\"} 3\n"
      "am_latency_us_bucket{le=\"1023\"} 4\n"
      "am_latency_us_bucket{le=\"+Inf\"} 4\n"
      "am_latency_us_sum 1006\n"
      "am_latency_us_count 4\n"
      "# HELP am_requests_total requests by kind\n"
      "# TYPE am_requests_total counter\n"
      "am_requests_total{kind=\"ping\"} 3\n"
      "am_requests_total{kind=\"stats\"} 1\n"
      "# HELP am_uptime_seconds seconds since start\n"
      "# TYPE am_uptime_seconds gauge\n"
      "am_uptime_seconds 12.5\n";
  EXPECT_EQ(render(reg), expected);
}

TEST(RenderPrometheus, ParseRoundTrip) {
  m::Registry reg;
  reg.counter("reqs_total", "h", {{"kind", "ping"}}).inc(42);
  reg.gauge("temp", "h").set(-3.25);
  m::Histogram& h = reg.histogram("lat", "h");
  for (int i = 0; i < 10; ++i) h.observe(100);

  const auto samples = m::parse_prometheus_text(render(reg));
  EXPECT_EQ(m::find_sample(samples, "reqs_total", {{"kind", "ping"}}),
            42.0);
  EXPECT_EQ(m::find_sample(samples, "temp"), -3.25);
  EXPECT_EQ(m::find_sample(samples, "lat_count"), 10.0);
  EXPECT_EQ(m::find_sample(samples, "lat_sum"), 1000.0);
  EXPECT_EQ(m::find_sample(samples, "lat_bucket", {{"le", "127"}}), 10.0);
  const auto inf = m::find_sample(samples, "lat_bucket", {{"le", "+Inf"}});
  ASSERT_TRUE(inf.has_value());
  EXPECT_EQ(*inf, 10.0);
  EXPECT_FALSE(m::find_sample(samples, "absent_metric").has_value());
  EXPECT_FALSE(
      m::find_sample(samples, "reqs_total", {{"kind", "absent"}}).has_value());
}

TEST(PromWriter, EscapesLabelValues) {
  EXPECT_EQ(m::PromWriter::escape_label("plain"), "plain");
  EXPECT_EQ(m::PromWriter::escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(m::PromWriter::escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(m::PromWriter::escape_label("a\nb"), "a\\nb");

  std::string out;
  m::PromWriter w(out);
  w.family("f", "help", m::Type::kGauge);
  w.sample("f", {{"path", "a\"b\\c"}}, 1.0);
  EXPECT_NE(out.find("f{path=\"a\\\"b\\\\c\"} 1\n"), std::string::npos);

  // And the parser undoes it.
  const auto samples = m::parse_prometheus_text(out);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels.at("path"), "a\"b\\c");
}

TEST(PromWriter, FamilyHeaderOnlyOnce) {
  std::string out;
  m::PromWriter w(out);
  w.family("f_total", "help", m::Type::kCounter);
  w.sample("f_total", {{"k", "a"}}, std::uint64_t{1});
  w.family("f_total", "help", m::Type::kCounter);  // continuation: no header
  w.sample("f_total", {{"k", "b"}}, std::uint64_t{2});
  std::size_t helps = 0;
  for (std::size_t p = out.find("# HELP"); p != std::string::npos;
       p = out.find("# HELP", p + 1)) {
    ++helps;
  }
  EXPECT_EQ(helps, 1u);
}

TEST(ParsePrometheusText, SurvivesGarbage) {
  const auto samples = m::parse_prometheus_text(
      "# comment\n"
      "\n"
      "ok_metric 1\n"
      "{no_name} 2\n"
      "unclosed_label{k=\"v 3\n"
      "no_value{k=\"v\"}\n"
      "not_a_number x\n"
      "special NaN\n"
      "inf_metric +Inf\n");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "ok_metric");
  EXPECT_EQ(samples[0].value, 1.0);
  EXPECT_EQ(samples[1].name, "special");
  EXPECT_TRUE(std::isnan(samples[1].value));
  EXPECT_EQ(samples[2].name, "inf_metric");
  EXPECT_TRUE(std::isinf(samples[2].value));
}
