#include "serve/telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>

namespace matchsparse::serve {

namespace {

/// One row per ServeCounter, in its order: the legacy JSON key (the
/// exposition's series is matchsparse_serve_<key>_total) and the
/// exposition's HELP text.
struct CounterSpec {
  const char* key;
  const char* help;
};
constexpr CounterSpec kCounterSpecs[] = {
    {"requests", "Frames dispatched, all types."},
    {"errors", "Error replies sent."},
    {"shed", "Jobs refused at the inflight cap."},
    {"budget_clamped",
     "Job memory budgets clamped to the unpromised remainder."},
    {"tripped_builds", "Sparsifier builds stopped by their guard."},
    {"cancels_delivered", "CANCEL frames that found their target in flight."},
    {"jobs_executed", "Jobs actually executed (admitted, not deduplicated)."},
    {"dedup_replays",
     "Retried idempotency tokens answered from the dedup window."},
    {"dedup_waits", "Retries that waited out a still-running original."},
    {"sessions_reaped",
     "Sessions dropped by the idle/write deadline watchdogs."},
    {"connections", "Connections accepted over all listeners."},
};
static_assert(std::size(kCounterSpecs) == kServeCounters);

/// Slot index of a frame tag: request types in declaration order, the
/// catch-all last (reply tags and unknown bytes land there too).
std::size_t frame_slot(FrameType t) {
  switch (t) {
    case FrameType::kLoad:
      return 0;
    case FrameType::kSparsify:
      return 1;
    case FrameType::kMatch:
      return 2;
    case FrameType::kPipeline:
      return 3;
    case FrameType::kStats:
      return 4;
    case FrameType::kEvict:
      return 5;
    case FrameType::kShutdown:
      return 6;
    case FrameType::kCancel:
      return 7;
    case FrameType::kError:
      break;
  }
  return 8;
}

const char* frame_slot_name(std::size_t slot) {
  static constexpr const char* kNames[] = {
      "load",  "sparsify", "match",  "pipeline", "stats",
      "evict", "shutdown", "cancel", "unknown"};
  return kNames[slot];
}

/// Prometheus metric-name charset: [a-zA-Z0-9_:], no leading digit.
/// Dotted registry names sanitize '.' (and '-') to '_'.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // The exposition format spells these out (unlike JSON).
    out += std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_help_type(std::string& out, const std::string& metric,
                      std::string_view help, const char* type) {
  out += "# HELP ";
  out += metric;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += metric;
  out += ' ';
  out += type;
  out += '\n';
}

void append_counter(std::string& out, const std::string& metric,
                    std::string_view help, std::uint64_t value) {
  append_help_type(out, metric, help, "counter");
  out += metric;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void append_gauge(std::string& out, const std::string& metric,
                  std::string_view help, double value) {
  append_help_type(out, metric, help, "gauge");
  out += metric;
  out += ' ';
  append_number(out, value);
  out += '\n';
}

/// `{frame="match",quantile="0.5"}` (either label optional; "" when
/// neither is set).
std::string label_set(std::string_view frame, const char* quantile) {
  if (frame.empty() && quantile == nullptr) return "";
  std::string out = "{";
  if (!frame.empty()) {
    out += "frame=\"";
    out += frame;
    out += '"';
  }
  if (quantile != nullptr) {
    if (!frame.empty()) out += ',';
    out += "quantile=\"";
    out += quantile;
    out += '"';
  }
  out += '}';
  return out;
}

/// Splits a registry name into its exposition family and optional
/// frame label: the per-frame serving families fold their last segment
/// into frame="..."; everything else is its own family.
void family_of(const std::string& name, std::string* family,
               std::string* frame) {
  static constexpr std::string_view kPerFrame[] = {"serve.queue_ms.",
                                                   "serve.service_ms."};
  for (const std::string_view prefix : kPerFrame) {
    if (name.size() > prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      *family = name.substr(0, prefix.size() - 1);
      *frame = name.substr(prefix.size());
      return;
    }
  }
  *family = name;
  frame->clear();
}

std::string_view family_help(std::string_view family) {
  if (family == "serve.queue_ms") {
    return "Frame queue wait in ms (bytes arrived to dispatched), per "
           "frame type.";
  }
  if (family == "serve.service_ms") {
    return "Frame service time in ms (dispatched to reply sent), per "
           "frame type.";
  }
  return "matchsparse registry instrument.";
}

}  // namespace

const char* counter_key(ServeCounter c) {
  return kCounterSpecs[static_cast<std::size_t>(c)].key;
}

ServeTelemetry::ServeTelemetry(std::size_t flight_capacity, bool enabled)
    : enabled_(enabled), flight_(flight_capacity) {
  for (std::size_t slot = 0; slot < kFrameSlots; ++slot) {
    const std::string name = frame_slot_name(slot);
    frames_[slot].queue = &registry_.bucket_histogram("serve.queue_ms." + name);
    frames_[slot].service =
        &registry_.bucket_histogram("serve.service_ms." + name);
  }
}

void ServeTelemetry::observe_frame(FrameType type, double queue_ms,
                                   double service_ms) {
  if (!enabled_) return;
  const FrameInstruments& f = frames_[frame_slot(type)];
  f.queue->observe(queue_ms);
  f.service->observe(service_ms);
}

void ServeTelemetry::count_outcome(RunStatus status) {
  if (!enabled_) return;
  registry_.counter(std::string("serve.outcome.") + to_string(status)).add();
}

void ServeTelemetry::count_refusal(ErrorCode code) {
  if (!enabled_) return;
  registry_.counter(std::string("serve.refused.") + to_string(code)).add();
}

void ServeTelemetry::count_cache(bool hit) {
  if (!enabled_) return;
  registry_.counter(hit ? "serve.match.cache_hit" : "serve.match.cache_miss")
      .add();
}

std::string ServeTelemetry::prometheus(std::uint32_t inflight,
                                       const GraphCache::Stats& cache,
                                       bool shutting_down) const {
  std::string out;
  out.reserve(1u << 12);

  for (std::size_t i = 0; i < kServeCounters; ++i) {
    append_counter(out,
                   std::string("matchsparse_serve_") + kCounterSpecs[i].key +
                       "_total",
                   kCounterSpecs[i].help,
                   counters_[i].load(std::memory_order_relaxed));
  }
  append_gauge(out, "matchsparse_serve_inflight", "Jobs currently running.",
               inflight);
  append_gauge(out, "matchsparse_serve_shutting_down",
               "1 while the server is draining.", shutting_down ? 1.0 : 0.0);

  append_counter(out, "matchsparse_cache_hits_total",
                 "Graph/sparsifier cache hits.", cache.hits);
  append_counter(out, "matchsparse_cache_misses_total",
                 "Graph/sparsifier cache misses.", cache.misses);
  append_counter(out, "matchsparse_cache_evictions_total",
                 "Cache entries evicted for space.", cache.evictions);
  append_counter(out, "matchsparse_cache_refused_total",
                 "Entries larger than the whole cache cap.", cache.refused);
  append_gauge(out, "matchsparse_cache_bytes_used", "Resident cached bytes.",
               static_cast<double>(cache.bytes_used));
  append_gauge(out, "matchsparse_cache_bytes_cap", "Cache byte capacity.",
               static_cast<double>(cache.bytes_cap));
  append_gauge(out, "matchsparse_cache_graphs", "Cached source graphs.",
               cache.graphs);
  append_gauge(out, "matchsparse_cache_sparsifiers", "Cached sparsifiers.",
               cache.sparsifiers);

  append_counter(out, "matchsparse_flight_completed_total",
                 "Requests written to the flight-recorder ring.",
                 flight_.completed());
  append_gauge(out, "matchsparse_flight_capacity",
               "Flight-recorder ring slots.",
               static_cast<double>(flight_.capacity()));

  // Registry instruments. The snapshot is sorted by name and the
  // family transform is prefix-preserving, so one family's series are
  // adjacent and HELP/TYPE is emitted exactly once per family.
  const obs::MetricsSnapshot snap = registry_.snapshot();
  std::string open_family;
  for (const obs::MetricValue& m : snap.metrics) {
    std::string family;
    std::string frame;
    family_of(m.name, &family, &frame);
    std::string metric = "matchsparse_" + sanitize(family);
    // Counters carry the conventional _total suffix (not doubled when
    // the registry name already ends in ".total").
    if (m.kind == obs::MetricKind::kCounter &&
        !(metric.size() >= 6 &&
          metric.compare(metric.size() - 6, 6, "_total") == 0)) {
      metric += "_total";
    }
    if (metric != open_family) {
      const char* type = m.kind == obs::MetricKind::kCounter  ? "counter"
                         : m.kind == obs::MetricKind::kGauge ? "gauge"
                                                             : "summary";
      append_help_type(out, metric, family_help(family), type);
      open_family = metric;
    }
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        out += metric + label_set(frame, nullptr) + ' ';
        out += std::to_string(m.count);
        out += '\n';
        break;
      case obs::MetricKind::kGauge:
        out += metric + label_set(frame, nullptr) + ' ';
        append_number(out, m.value);
        out += '\n';
        break;
      case obs::MetricKind::kBucketHistogram: {
        const struct {
          const char* q;
          double v;
        } quantiles[] = {{"0.5", m.p50},
                         {"0.9", m.p90},
                         {"0.95", m.p95},
                         {"0.99", m.p99}};
        for (const auto& [q, v] : quantiles) {
          out += metric + label_set(frame, q) + ' ';
          append_number(out, v);
          out += '\n';
        }
        out += metric + "_sum" + label_set(frame, nullptr) + ' ';
        append_number(out, m.value);
        out += '\n';
        out += metric + "_count" + label_set(frame, nullptr) + ' ';
        out += std::to_string(m.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace matchsparse::serve
