// Metrics registries — the quantitative half of the observability
// layer (DESIGN.md §11), request-scoped since §14.
//
// Three instrument kinds, all addressed by a dotted name following the
// `subsystem.noun.verb-or-aspect` scheme (e.g. "sparsify.marks.total",
// "dist.msgs.sent"):
//
//   Counter   — monotonically increasing uint64; a relaxed atomic add,
//               cheap enough for per-call accounting on hot paths.
//   Gauge     — a last-write-wins double (e.g. the Obs 2.10 density
//               ratio "sparsify.edges.vs_bound").
//   BucketHistogram — a lock-free fixed-log-bucket distribution
//               (obs/histogram.hpp) with bounded-relative-error
//               p50/p90/p95/p99 estimation; observe() takes no lock, so
//               it is safe per sample under concurrent scrapes.
//
// Instrument resolution is AMBIENT: obs::counter("x") writes into the
// current thread's installed Registry (a request-scoped registry set up
// by guard::RunContext, inherited by pool workers at submit time) and
// falls back to the process-wide Registry::instance() when none is
// installed — the pre-§14 behavior, so single-run callers and the CLI's
// one-shot commands are unchanged. Because the resolved registry now
// depends on the calling request, call sites must NOT cache the
// returned reference in a function-local `static` (the old stable-
// address idiom): a static would pin every later request to whichever
// registry the first caller ran under. Hot loops keep the lookups off
// the inner path by resolving an instrument once per run into a local
// reference and writing through it.
//
// snapshot() returns every registered instrument sorted by name, so two
// runs doing the same work produce byte-identical snapshots regardless
// of thread interleaving (counters are order-independent sums). A
// request-scoped registry is folded into the global one exactly once
// via merge_into() (counters/histograms add, gauges last-write-wins,
// deterministic name order), which is what keeps aggregate exports and
// the run manifest unchanged after the request-scoping refactor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace matchsparse::obs {

enum class MetricKind { kCounter, kGauge, kBucketHistogram };

/// One exported instrument value. Counters fill `count`; gauges fill
/// `value`; histograms fill `count`, `value` (the sum), `mean` and the
/// quantile estimates (min/max hold the 0- and 1-quantile bucket
/// representatives).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  // counter total / histogram sample count
  double value = 0.0;       // gauge value / histogram sum
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// A point-in-time copy of the registry, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// Lookup by name; nullptr if the instrument was never registered.
  const MetricValue* find(std::string_view name) const;
  /// Counter total (or 0 when absent / not a counter).
  std::uint64_t counter_value(std::string_view name) const;
  /// Gauge value (or 0.0 when absent / not a gauge).
  double gauge_value(std::string_view name) const;
  /// One JSON object keyed by metric name; counters are bare integers,
  /// gauges bare numbers, histograms nested objects.
  std::string to_json() const;
};

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Name → instrument map with stable addresses: a returned reference
/// stays valid for the REGISTRY's lifetime. Instantiable since §14 —
/// every guard::RunContext owns one — with the process-wide instance()
/// remaining the ambient fallback for unscoped callers.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& instance();

  /// Find-or-create. Aborts (MS_CHECK) if `name` is already registered
  /// as a different kind — one name means one instrument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  BucketHistogram& bucket_histogram(std::string_view name);

  /// Sorted point-in-time copy. Only the raw instrument values are read
  /// under the registry mutex; histogram reads (a sweep of hundreds of
  /// atomics) and every string allocation happen after it is released,
  /// so a scrape never stalls concurrent instrument resolution.
  MetricsSnapshot snapshot() const;

  /// Folds every instrument of this registry into `target`: counters
  /// and histograms accumulate, gauges overwrite (last writer wins —
  /// only gauges registered here touch the target's). Iteration is in
  /// sorted name order, so merging the same registries in the same
  /// sequence is deterministic. Used by RunContext to publish a
  /// request's metrics into the global registry exactly once.
  void merge_into(Registry& target) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The registry installed on the current thread (nullptr when the
/// thread runs unscoped). Backed by the ambient slot array that pool
/// workers inherit at submit time (util/ambient.hpp).
Registry* ambient_registry();

/// Ambient resolution: the installed registry, else the global one.
Registry& resolve_registry();

/// RAII: installs `r` as the current thread's registry for the scope.
/// RunContext uses this; tests can install a scratch registry directly.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(Registry& r);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  Registry* previous_;
};

inline Counter& counter(std::string_view name) {
  return resolve_registry().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return resolve_registry().gauge(name);
}
inline BucketHistogram& bucket_histogram(std::string_view name) {
  return resolve_registry().bucket_histogram(name);
}
inline MetricsSnapshot metrics_snapshot() {
  return resolve_registry().snapshot();
}

}  // namespace matchsparse::obs
