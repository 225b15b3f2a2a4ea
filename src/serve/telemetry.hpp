// The daemon's live telemetry plane (DESIGN.md §16).
//
// ServeTelemetry is the server-owned half of the observability story:
// per-frame-type queue-wait / service-time BucketHistograms, the
// daemon's counters (ServeCounter) and outcome / refusal / cache
// counters, the always-on flight recorder, and the Prometheus
// text-exposition renderer behind STATS format=1.
// It aggregates in a server-owned obs::Registry that each request's
// RunContext registry is folded into at completion, so the exposition
// carries both the serving-path latency split and the library's own
// per-run instruments (sparsify marks, ladder rungs, guard polls)
// without a process-global in the way of concurrent servers.
//
// Cost model: the hot-path write is a handful of relaxed atomic
// increments (BucketHistogram::observe + a counter or two) — no locks,
// no allocation — which is what the bench_serve telemetry-overhead
// section gates at <= 1.05x the telemetry-off p50. `enabled` (from
// ServerOptions::telemetry) gates neither the ServeCounters, which both
// STATS formats report, nor the flight recorder: its ring writes are
// cheaper still, and an incident is exactly when the operator needs it
// populated.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/api.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"

namespace matchsparse::serve {

/// The daemon's process-lifetime counters, in the legacy STATS JSON's
/// order. Both STATS formats read them from ServeTelemetry: the legacy
/// JSON under counter_key(), the exposition as
/// matchsparse_serve_<key>_total with a HELP text saying what each one
/// counts. They sit outside the registry, so they keep counting with
/// telemetry off (ServerOptions::telemetry = false), which stops the
/// registry's merges: the legacy JSON's counters are a wire contract.
enum class ServeCounter : std::uint8_t {
  kRequests,
  kErrors,
  kShed,
  kBudgetClamped,
  kTrippedBuilds,
  kCancelsDelivered,
  kJobsExecuted,
  kDedupReplays,
  kDedupWaits,
  kSessionsReaped,
  kConnections,
};
inline constexpr std::size_t kServeCounters =
    static_cast<std::size_t>(ServeCounter::kConnections) + 1;

/// "requests", "errors", ...: the legacy JSON key of `c`.
const char* counter_key(ServeCounter c);

class ServeTelemetry {
 public:
  /// `flight_capacity` sizes the recorder ring (clamped >= 1);
  /// `enabled` gates the histograms and the outcome/refusal/cache
  /// counters; the ServeCounters and the flight recorder always run.
  ServeTelemetry(std::size_t flight_capacity, bool enabled);

  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  bool enabled() const { return enabled_; }
  obs::Registry& registry() { return registry_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// One daemon event; counted whatever `enabled` says.
  void count(ServeCounter c) {
    counters_[static_cast<std::size_t>(c)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t value(ServeCounter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  /// Hot path: one handled frame's queue-wait (bytes-arrived to
  /// dispatched) and service time (dispatched to reply sent), split per
  /// frame type ("serve.queue_ms.match", "serve.service_ms.match", ...).
  void observe_frame(FrameType type, double queue_ms, double service_ms);

  /// One served job's landing rung on the degradation ladder
  /// ("serve.outcome.ok", "serve.outcome.degraded-maximal", ...).
  void count_outcome(RunStatus status);
  /// One refused request by error code ("serve.refused.shed", ...).
  void count_refusal(ErrorCode code);
  /// One MATCH served from / missing the sparsifier cache.
  void count_cache(bool hit);

  /// Always-on (see file comment): one completed or refused request
  /// into the ring.
  void record_flight(const FlightRecord& r) { flight_.record(r); }

  /// Prometheus text exposition format v0.0.4 of everything the daemon
  /// knows: the ServeCounters, the inflight and draining gauges, cache
  /// stats, flight-ring state, and every instrument of the server-owned
  /// registry (BucketHistograms render as summaries with quantile
  /// labels; the per-frame families "serve.queue_ms.*" /
  /// "serve.service_ms.*" fold their last name segment into a
  /// frame="..." label).
  std::string prometheus(std::uint32_t inflight,
                         const GraphCache::Stats& cache,
                         bool shutting_down) const;

 private:
  /// One slot per request frame type plus a trailing catch-all for
  /// unrecognized tags; see frame_slot() in the .cpp.
  static constexpr std::size_t kFrameSlots = 9;

  struct FrameInstruments {
    obs::BucketHistogram* queue = nullptr;
    obs::BucketHistogram* service = nullptr;
  };

  bool enabled_;
  obs::Registry registry_;
  FlightRecorder flight_;
  /// Pre-resolved at construction (registry addresses are stable for
  /// its lifetime), so the per-frame hot path never takes the registry
  /// mutex for a name lookup.
  std::array<FrameInstruments, kFrameSlots> frames_{};
  std::array<std::atomic<std::uint64_t>, kServeCounters> counters_{};
};

}  // namespace matchsparse::serve
