#include "tracing.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <fstream>
#include <thread>

#include "report.hpp"

namespace perfbench {

namespace obs = matchsparse::obs;

LayerSpan::LayerSpan(obs::Tracer* tracer, std::string_view name) {
  if (tracer == nullptr) return;
  const obs::ScopedTracer scope(*tracer);
  span_.emplace(name);
}

std::vector<SpanRecord> span_records(const obs::Tracer& tracer) {
  std::vector<obs::TraceEvent> events = tracer.events();
  // Parents before children: by thread, start, longer first, shallower
  // first (a child can share its parent's microsecond start and length).
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return a.depth < b.depth;
            });
  std::vector<SpanRecord> out;
  out.reserve(events.size());
  std::vector<std::int64_t> open;  // per depth: the last span opened there
  std::uint32_t tid = 0;
  for (const obs::TraceEvent& ev : events) {
    if (out.empty() || ev.tid != tid) {
      open.clear();
      tid = ev.tid;
    }
    SpanRecord r;
    r.name = ev.name;
    r.tid = ev.tid;
    r.start_us = ev.ts_us;
    r.dur_us = ev.dur_us;
    if (ev.depth > 0 && ev.depth <= open.size()) r.parent = open[ev.depth - 1];
    open.resize(ev.depth);
    open.push_back(static_cast<std::int64_t>(out.size()));
    out.push_back(std::move(r));
  }
  // Request ids: top-level spans numbered in start order across threads.
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].parent < 0) roots.push_back(i);
  }
  std::stable_sort(roots.begin(), roots.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out[a].start_us < out[b].start_us;
                   });
  for (std::size_t k = 0; k < roots.size(); ++k) out[roots[k]].request = k;
  for (SpanRecord& r : out) {  // parents precede children
    if (r.parent >= 0) r.request = out[static_cast<std::size_t>(r.parent)].request;
  }
  return out;
}

Samples span_ms(const std::vector<SpanRecord>& spans, std::string_view name) {
  Samples s;
  for (const SpanRecord& r : spans) {
    if (r.name == name) s.add(static_cast<double>(r.dur_us) / 1e3);
  }
  return s;
}

bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":" << json_string(r.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid << ",\"ts\":" << r.start_us
        << ",\"dur\":" << r.dur_us << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << r.parent << ",\"request\":" << r.request << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

std::array<double, static_cast<std::size_t>(Layer::kCount)> g_delay_ms{};

}  // namespace

bool arm_delay(std::string_view spec) {
  static constexpr std::pair<std::string_view, Layer> kNames[] = {
      {"graph", Layer::kGraph}, {"matching", Layer::kMatching}};
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return false;
  const std::string_view name = spec.substr(0, colon);
  const std::string_view ms = spec.substr(colon + 1);
  double value = 0.0;
  const auto res = std::from_chars(ms.data(), ms.data() + ms.size(), value);
  if (res.ec != std::errc() || res.ptr != ms.data() + ms.size() || value < 0) {
    return false;
  }
  for (const auto& [n, layer] : kNames) {
    if (n == name) {
      g_delay_ms[static_cast<std::size_t>(layer)] = value;
      return true;
    }
  }
  return false;
}

void seam_delay(Layer layer) {
  const double ms = g_delay_ms[static_cast<std::size_t>(layer)];
  if (ms > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

}  // namespace perfbench
