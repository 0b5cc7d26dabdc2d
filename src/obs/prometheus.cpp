#include "obs/prometheus.hpp"

#include <cmath>
#include <cstdio>

namespace am::obs::metrics {

namespace {

/// Sample-line value rendering: integers exact, doubles via %.10g.
std::string render_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += PromWriter::escape_label(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string PromWriter::escape_label(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void PromWriter::family(std::string_view name, std::string_view help,
                        Type type) {
  if (current_family_ == name) return;
  current_family_ = std::string(name);
  out_ += "# HELP ";
  out_ += name;
  out_ += ' ';
  out_ += help;
  out_ += "\n# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += to_string(type);
  out_ += '\n';
}

void PromWriter::sample(std::string_view name, const Labels& labels,
                        double value, std::string_view suffix) {
  out_ += name;
  out_ += suffix;
  out_ += render_labels(labels);
  out_ += ' ';
  out_ += render_value(value);
  out_ += '\n';
}

void PromWriter::sample(std::string_view name, const Labels& labels,
                        std::uint64_t value, std::string_view suffix) {
  out_ += name;
  out_ += suffix;
  out_ += render_labels(labels);
  out_ += ' ';
  out_ += std::to_string(value);
  out_ += '\n';
}

void render_prometheus(const Registry& registry, PromWriter& w) {
  for (const Instrument* inst : registry.instruments()) {
    w.family(inst->name, inst->help, inst->type);
    switch (inst->type) {
      case Type::kCounter:
        w.sample(inst->name, inst->labels, inst->counter->value());
        break;
      case Type::kGauge:
        w.sample(inst->name, inst->labels, inst->gauge->value());
        break;
      case Type::kHistogram: {
        const auto buckets = inst->histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          // Empty tail buckets are elided (after the last non-zero bucket
          // everything is identical to the +Inf line), which keeps a 48-
          // bucket histogram readable; cumulative semantics stay exact.
          cumulative += buckets[i];
          if (buckets[i] == 0) continue;
          Labels with_le = inst->labels;
          with_le.emplace_back(
              "le", std::to_string(Histogram::bucket_bound(i)));
          w.sample(inst->name, with_le, cumulative, "_bucket");
        }
        Labels inf = inst->labels;
        inf.emplace_back("le", "+Inf");
        w.sample(inst->name, inf, cumulative, "_bucket");
        w.sample(inst->name, inst->labels, inst->histogram->sum(), "_sum");
        w.sample(inst->name, inst->labels, cumulative, "_count");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

std::vector<PromSample> parse_prometheus_text(std::string_view text) {
  std::vector<PromSample> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty() || line.front() == '#') continue;

    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0 || i >= line.size()) continue;
    s.name = std::string(line.substr(0, i));

    if (line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          i = line.size();
          break;
        }
        std::string key(line.substr(i, eq - i));
        std::string value;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            ++j;
            value += line[j] == 'n' ? '\n' : line[j];
          } else {
            value += line[j];
          }
          ++j;
        }
        if (j >= line.size()) {
          i = line.size();
          break;
        }
        s.labels.emplace(std::move(key), std::move(value));
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') continue;  // malformed
      ++i;
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) continue;
    const std::string value_str(line.substr(i));
    if (value_str == "+Inf") {
      s.value = HUGE_VAL;
    } else if (value_str == "-Inf") {
      s.value = -HUGE_VAL;
    } else if (value_str == "NaN") {
      s.value = NAN;
    } else {
      char* end = nullptr;
      s.value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str()) continue;  // no number parsed
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::optional<double> find_sample(
    const std::vector<PromSample>& samples, std::string_view name,
    const std::map<std::string, std::string>& labels) {
  for (const PromSample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      const auto it = s.labels.find(k);
      if (it == s.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return s.value;
  }
  return std::nullopt;
}

}  // namespace am::obs::metrics
