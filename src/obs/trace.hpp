// Structured tracing — the temporal half of the observability layer
// (DESIGN.md §11).
//
// A Span is an RAII wall-clock interval: construct at the top of a phase,
// and its lifetime is recorded as one complete event when it is
// destroyed. Spans nest naturally (a thread-local depth counter tracks
// the stack) and are thread-aware: every thread — including
// default_pool() workers — gets a small dense tid the first time it
// opens a span, so shard-level spans from the parallel pipelines land on
// their own tracks in a trace viewer.
//
// Recording is globally off by default. The only cost of a span while
// tracing is disabled is one relaxed atomic load; when enabled, the cost
// is a clock read at each end plus one short critical section appending
// the finished event. Spans are coarse by design (phases, stages,
// shards, protocol runs — never per-vertex or per-message).
//
// Exports:
//   write_chrome()  — Chrome trace_event JSON ("X" complete events),
//                     loadable in chrome://tracing and Perfetto.
//   write_ndjson()  — one JSON object per line, greppable.
//   span_summary_json() — per-name {count, total_us, max_us} aggregate,
//                     embedded in the run manifest (manifest.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace matchsparse::obs {

/// One finished span. Timestamps are microseconds on the steady clock,
/// relative to the tracer's epoch (its construction, or the last
/// clear()).
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;    // dense per-thread id, assigned on first span
  std::uint64_t ts_us = 0;  // span begin
  std::uint64_t dur_us = 0; // span duration
  std::uint32_t depth = 0;  // nesting depth at begin (0 = top level)
};

class Tracer {
 public:
  /// Instantiable since §14: every guard::RunContext owns a Tracer so
  /// concurrent requests record span streams in isolation. instance()
  /// remains the ambient fallback for unscoped callers.
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& instance();

  /// Master switch; spans opened while disabled record nothing.
  void set_enabled(bool on);
  bool is_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops all recorded events and restarts the epoch.
  void clear();

  /// Copy of the recorded events, sorted by (tid, ts, -dur) so nested
  /// spans follow their parents.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON: {"traceEvents":[...]}.
  std::string write_chrome() const;
  /// One event object per line.
  std::string write_ndjson() const;
  /// {"<name>":{"count":N,"total_us":T,"max_us":M},...} sorted by name.
  std::string span_summary_json() const;

  /// Writes write_chrome() to `path`; false on I/O failure.
  bool export_chrome(const std::string& path) const;

 private:
  friend class Span;
  std::uint64_t now_us() const;
  void record(TraceEvent ev);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::uint64_t epoch_ns_ = 0;
};

/// The tracer installed on the current thread (nullptr when the thread
/// runs unscoped); inherited by pool workers at submit time.
Tracer* ambient_tracer();

/// Ambient resolution: the installed tracer, else the global instance.
Tracer& resolve_tracer();

/// RAII: installs `t` as the current thread's tracer for the scope.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer& t);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // resolved once at open — a span records
                              // into the scope it was opened under even
                              // if the ambient changes before close
  std::string name_;
  std::uint64_t start_us_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace matchsparse::obs
