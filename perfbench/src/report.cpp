#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kPerLayer;

const MetricSpec* find_spec(std::string_view name) {
  for (const MetricSpec& s : metric_specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", E},
      {"latency_ms_p50", "ms", E},
      {"latency_ms_tail", "ms", E},
      {"goodput_qps", "1/s", E},
      {"match_ratio", "ratio", E},
      {"peak_rss_mb", "MB", E},
      {"graph.csr_ms", "ms", L},
      {"graph.load_ms_p50", "ms", L},
      {"sparsify.ms_p50", "ms", L},
      {"sparsify.mark_ms_p50", "ms", L},
      {"sparsify.csr_ms_p50", "ms", L},
      {"sparsify.probes", "count", L},
      {"sparsify.read_frac", "ratio", L},
      {"sparsify.edges", "count", L},
      {"sparsify.dedup_yield", "ratio", L},
      {"matching.ms_p50", "ms", L},
      {"matching.searches", "count", L},
      {"matching.search_yield", "ratio", L},
      {"core.overhead_ms_p50", "ms", L},
      {"guard.polls", "count", L},
      {"guard.mem_peak_mb", "MB", L},
      {"serve.encode_us_p50", "us", L},
      {"serve.decode_us_p50", "us", L},
      {"serve.reply_bytes", "bytes", L},
      {"serve.queue_ms_p99", "ms", L},
      {"serve.service_ms_p50", "ms", L},
      {"serve.service_ms_p99", "ms", L},
      {"serve.wire_ms_p50", "ms", L},
      {"serve.cache.hit_ratio", "ratio", L},
      {"serve.cache.evictions", "count", L},
      {"serve.reloads", "count", L},
      {"serve.rtt_hit_ms_p50", "ms", L},
      {"serve.rtt_miss_ms_p50", "ms", L},
      {"serve.shed", "count", L},
      {"serve.errors", "count", L},
      {"trace.overhead", "ratio", L},
  };
  return specs;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

Report::Entry& Report::entry(std::string_view name) {
  if (find_spec(name) == nullptr) {
    throw std::logic_error("unknown metric " + std::string(name));
  }
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(std::string(name), Entry{}).first;
  return it->second;
}

void Report::set(std::string_view name, std::optional<double> value) {
  Entry& e = entry(name);
  if (value && !std::isfinite(*value)) {
    problem("non-finite value for " + std::string(name));
    value.reset();
  }
  e.value = value;
}

void Report::set_ratio(std::string_view name, double num, double den) {
  set(name, den != 0.0 ? std::optional<double>(num / den) : std::nullopt);
  note(name, "base", den);
}

void Report::set_quantile(std::string_view name, const Samples& s, double q) {
  set(name, s.quantile(q));
  note(name, "quantile", q);
  note(name, "samples", static_cast<double>(s.size()));
}

void Report::set_tail(std::string_view name, const Samples& s, double q) {
  const std::size_t beyond = s.beyond(q);
  set(name, beyond >= kMinBeyondTail ? s.quantile(q) : std::nullopt);
  note(name, "quantile", q);
  note(name, "samples", static_cast<double>(s.size()));
  note(name, "beyond", static_cast<double>(beyond));
}

void Report::note(std::string_view name, std::string_view key, double v) {
  entry(name).notes.emplace_back(std::string(key), v);
}

void Report::stamp(std::string_view key, std::string_view value) {
  stamps_.emplace_back(std::string(key), json_string(value));
}

void Report::stamp(std::string_view key, double value) {
  stamps_.emplace_back(std::string(key), json_number(value));
}

void Report::problem(std::string what) { problems_.push_back(std::move(what)); }

bool Report::valid(MetricKind printed) const {
  if (!problems_.empty()) return false;
  if (printed != MetricKind::kEndToEnd) return true;
  for (const MetricSpec& s : metric_specs()) {
    if (s.kind == MetricKind::kEndToEnd && !value(s.name)) return false;
  }
  return true;
}

std::optional<double> Report::value(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::nullopt : it->second.value;
}

std::string Report::report_line(MetricKind printed) const {
  std::string out = "{\"perfbench\":{";
  for (std::size_t i = 0; i < stamps_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(stamps_[i].first) + ':' + stamps_[i].second;
  }
  out += "},\"valid\":";
  out += valid(printed) ? "true" : "false";
  out += ",\"problems\":[";
  std::vector<std::string> problems = problems_;
  for (const MetricSpec& s : metric_specs()) {
    if (s.kind == MetricKind::kEndToEnd && printed == MetricKind::kEndToEnd &&
        !value(s.name)) {
      problems.push_back(std::string("end-to-end metric ") + s.name +
                         " is undefined");
    }
  }
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(problems[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const MetricSpec& s : metric_specs()) {
    if (s.kind != printed) continue;
    if (!first) out += ',';
    first = false;
    out += json_string(s.name) + ":{\"value\":";
    const auto it = entries_.find(s.name);
    if (it == entries_.end()) {
      out += "null,\"unit\":" + json_string(s.unit) + ",\"samples\":0}";
      continue;
    }
    out += it->second.value ? json_number(*it->second.value) : "null";
    out += ",\"unit\":" + json_string(s.unit);
    for (const auto& [key, v] : it->second.notes) {
      out += ',' + json_string(key) + ':' + json_number(v);
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string Report::result_line(MetricKind printed, std::uint64_t attempted,
                                std::uint64_t failed) const {
  const bool correct = attempted > 0 && failed == 0 && valid(printed);
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricSpec& s : metric_specs()) {
    if (s.kind != printed) continue;
    if (!first) out += ',';
    first = false;
    out += json_string(s.name) + ":{\"value\":";
    out += json_number(value(s.name).value_or(0.0));
    out += ",\"unit\":" + json_string(s.unit) + '}';
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
