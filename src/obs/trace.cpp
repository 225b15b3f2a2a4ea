#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "util/ambient.hpp"
#include "util/json.hpp"

namespace matchsparse::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Dense thread ids: 0 for the first thread that ever opens a span
/// (normally main), then 1, 2, ... for pool workers as they join.
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Per-thread span nesting depth. Only spans that were active at
/// construction touch it, so enable/disable races cannot unbalance it.
thread_local std::uint32_t t_depth = 0;

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) std::fclose(f);
  return ok;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::instance() {
  // Leaked for the same reason as the metrics registry: spans may close
  // during static destruction of the shared thread pool.
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  epoch_ns_ = steady_ns();
}

std::uint64_t Tracer::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000;
}

void Tracer::record(TraceEvent ev) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = events_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parents before children
            });
  return out;
}

std::string Tracer::write_chrome() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, ev.name);
    out += ",\"cat\":\"matchsparse\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(ev.tid) + ",\"ts\":" + std::to_string(ev.ts_us) +
           ",\"dur\":" + std::to_string(ev.dur_us) +
           ",\"args\":{\"depth\":" + std::to_string(ev.depth) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Tracer::write_ndjson() const {
  std::string out;
  for (const TraceEvent& ev : events()) {
    out += "{\"name\":";
    append_json_string(out, ev.name);
    out += ",\"tid\":" + std::to_string(ev.tid) +
           ",\"ts_us\":" + std::to_string(ev.ts_us) +
           ",\"dur_us\":" + std::to_string(ev.dur_us) +
           ",\"depth\":" + std::to_string(ev.depth) + "}\n";
  }
  return out;
}

std::string Tracer::span_summary_json() const {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& ev : events()) {
    Agg& a = by_name[ev.name];
    ++a.count;
    a.total_us += ev.dur_us;
    a.max_us = std::max(a.max_us, ev.dur_us);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(a.count) +
           ",\"total_us\":" + std::to_string(a.total_us) +
           ",\"max_us\":" + std::to_string(a.max_us) + "}";
  }
  out += '}';
  return out;
}

bool Tracer::export_chrome(const std::string& path) const {
  return write_file(path, write_chrome());
}

Tracer* ambient_tracer() {
  return static_cast<Tracer*>(ambient::get(ambient::kTraceSlot));
}

Tracer& resolve_tracer() {
  Tracer* t = ambient_tracer();
  return t != nullptr ? *t : Tracer::instance();
}

ScopedTracer::ScopedTracer(Tracer& t)
    : previous_(
          static_cast<Tracer*>(ambient::exchange(ambient::kTraceSlot, &t))) {}

ScopedTracer::~ScopedTracer() {
  ambient::exchange(ambient::kTraceSlot, previous_);
}

Span::Span(std::string_view name) {
  Tracer& tracer = resolve_tracer();
  if (!tracer.is_enabled()) return;
  tracer_ = &tracer;
  active_ = true;
  name_ = name;
  depth_ = t_depth++;
  start_us_ = tracer.now_us();
}

Span::~Span() {
  if (!active_) return;
  --t_depth;
  Tracer& tracer = *tracer_;
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.tid = current_tid();
  ev.ts_us = start_us_;
  // A clear() between begin and end moves the epoch forward; clamp so a
  // racing span cannot record a wrapped-around duration.
  const std::uint64_t end_us = tracer.now_us();
  ev.dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  ev.depth = depth_;
  tracer.record(std::move(ev));
}

}  // namespace matchsparse::obs
