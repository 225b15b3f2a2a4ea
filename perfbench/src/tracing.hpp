// Spans of the traced run, and the test-only delay seam.
//
// The traced run records obs::Span events into the benchmark's own
// obs::Tracer. A span is opened with that tracer installed only for the
// instant of construction (obs::Span resolves its tracer once, at open),
// so the library calls it encloses see no ambient tracer and their own
// internal spans stay dormant: every recorded event is one the benchmark
// opened around a public call. Events stay in memory and are written to
// one Chrome trace file when the run ends.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

class LayerSpan {
 public:
  /// Records nothing when `tracer` is null (the untraced run).
  LayerSpan(matchsparse::obs::Tracer* tracer, std::string_view name);

 private:
  std::optional<matchsparse::obs::Span> span_;
};

/// One recorded span with its parent and request: the request id is the
/// index, in start order, of the span's top-level ancestor, so every span
/// of one request shares it.
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::int64_t parent = -1;  // index into the record list; -1 at top level
  std::uint64_t request = 0;
};

std::vector<SpanRecord> span_records(const matchsparse::obs::Tracer& tracer);

/// Durations, in ms, of the spans called `name`.
Samples span_ms(const std::vector<SpanRecord>& spans, std::string_view name);

/// Writes the records as Chrome trace_event JSON, with parent and request
/// ids in each event's args. False on I/O failure.
bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

/// Layers the benchmark can slow down from outside (see seam_delay).
enum class Layer { kGraph, kMatching, kCount };

/// Parses "<layer>:<ms>" (layer = graph | matching) and arms a fixed delay
/// at that layer's call sites; false on a malformed spec. Test-only: the
/// attribution test uses it to check that a slower layer moves only its
/// own metrics.
bool arm_delay(std::string_view spec);

/// Sleeps for the armed delay of `layer`, if any. The benchmark calls it
/// next to each call into that layer's public functions.
void seam_delay(Layer layer);

}  // namespace perfbench
