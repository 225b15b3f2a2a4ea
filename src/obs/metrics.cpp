#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "util/ambient.hpp"
#include "util/common.hpp"
#include "util/json.hpp"

namespace matchsparse::obs {

namespace {

void append_json_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // JSON has no inf/nan literals; clamp to null (never produced by the
  // instruments, but a gauge can be set to anything).
  out += std::isfinite(v) ? buf : "null";
}

}  // namespace

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kCounter) ? m->count : 0;
}

double MetricsSnapshot::gauge_value(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kGauge) ? m->value : 0.0;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, m.name);
    out += ':';
    switch (m.kind) {
      case MetricKind::kCounter:
        out += std::to_string(m.count);
        break;
      case MetricKind::kGauge:
        append_json_number(out, m.value);
        break;
      case MetricKind::kBucketHistogram:
        out += "{\"count\":" + std::to_string(m.count) + ",\"sum\":";
        append_json_number(out, m.value);
        out += ",\"mean\":";
        append_json_number(out, m.mean);
        out += ",\"p50\":";
        append_json_number(out, m.p50);
        out += ",\"p90\":";
        append_json_number(out, m.p90);
        out += ",\"p95\":";
        append_json_number(out, m.p95);
        out += ",\"p99\":";
        append_json_number(out, m.p99);
        out += '}';
        break;
    }
  }
  out += '}';
  return out;
}

/// std::map keeps iteration sorted by name (snapshot determinism) and
/// never invalidates element addresses, so returned references are
/// stable for the process lifetime.
struct Registry::State {
  mutable std::mutex mutex;
  std::map<std::string, MetricKind, std::less<>> kinds;
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, BucketHistogram, std::less<>> bucket_histograms;

  void check_kind(std::string_view name, MetricKind kind) {
    const auto it = kinds.find(name);
    if (it == kinds.end()) {
      kinds.emplace(std::string(name), kind);
    } else {
      MS_CHECK_MSG(it->second == kind,
                   "metric registered twice with different kinds");
    }
  }
};

Registry::Registry() : state_(std::make_unique<State>()) {}

Registry::~Registry() = default;

Registry& Registry::instance() {
  // Leaked on purpose: instrumented code may run during static
  // destruction (pool workers draining at exit) and must always have a
  // live registry to write to.
  static Registry* const registry = new Registry();
  return *registry;
}

Registry* ambient_registry() {
  return static_cast<Registry*>(ambient::get(ambient::kMetricsSlot));
}

Registry& resolve_registry() {
  Registry* r = ambient_registry();
  return r != nullptr ? *r : Registry::instance();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(Registry& r)
    : previous_(static_cast<Registry*>(
          ambient::exchange(ambient::kMetricsSlot, &r))) {}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  ambient::exchange(ambient::kMetricsSlot, previous_);
}

void Registry::merge_into(Registry& target) const {
  MS_CHECK_MSG(this != &target, "registry cannot merge into itself");
  // Walk this registry under its own lock collecting only raw scalar
  // values and stable instrument/name addresses (map nodes are never
  // erased), then read the histograms and write into the target —
  // under the target's lock, per accessor — outside it.
  // Merges only ever flow request-registry → aggregate registry, so
  // the two-step never inverts a lock order.
  struct ScalarEntry {
    const std::string* name;
    MetricKind kind;
    std::uint64_t count;
    double value;
  };
  struct BucketEntry {
    const std::string* name;
    const BucketHistogram* hist;
  };
  std::vector<ScalarEntry> scalars;
  std::vector<BucketEntry> buckets;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    scalars.reserve(state_->counters.size() + state_->gauges.size());
    buckets.reserve(state_->bucket_histograms.size());
    for (const auto& [name, counter] : state_->counters) {
      scalars.push_back(
          ScalarEntry{&name, MetricKind::kCounter, counter.value(), 0.0});
    }
    for (const auto& [name, gauge] : state_->gauges) {
      scalars.push_back(
          ScalarEntry{&name, MetricKind::kGauge, 0, gauge.value()});
    }
    for (const auto& [name, histogram] : state_->bucket_histograms) {
      buckets.push_back(BucketEntry{&name, &histogram});
    }
  }
  for (const ScalarEntry& m : scalars) {
    if (m.kind == MetricKind::kCounter) {
      if (m.count != 0) target.counter(*m.name).add(m.count);
      else target.counter(*m.name);  // keep the name registered
    } else {
      target.gauge(*m.name).set(m.value);
    }
  }
  for (const BucketEntry& b : buckets) {
    target.bucket_histogram(*b.name).merge(b.hist->snapshot());
  }
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  state_->check_kind(name, MetricKind::kCounter);
  return state_->counters[std::string(name)];
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  state_->check_kind(name, MetricKind::kGauge);
  return state_->gauges[std::string(name)];
}

BucketHistogram& Registry::bucket_histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  state_->check_kind(name, MetricKind::kBucketHistogram);
  return state_->bucket_histograms[std::string(name)];
}

MetricsSnapshot Registry::snapshot() const {
  // Phase 1, under the registry mutex: raw scalar values plus stable
  // name/instrument addresses only — no string copies, no histogram
  // sweeps. Phase 2, after release: read the histograms and build
  // (allocate) the MetricValues.
  // Map nodes are never erased, so the collected addresses stay valid.
  struct Entry {
    const std::string* name;
    MetricKind kind;
    std::uint64_t count = 0;
    double value = 0.0;
    const BucketHistogram* hist = nullptr;
  };
  std::vector<Entry> entries;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    entries.reserve(state_->kinds.size());
    for (const auto& [name, counter] : state_->counters) {
      Entry e;
      e.name = &name;
      e.kind = MetricKind::kCounter;
      e.count = counter.value();
      entries.push_back(e);
    }
    for (const auto& [name, gauge] : state_->gauges) {
      Entry e;
      e.name = &name;
      e.kind = MetricKind::kGauge;
      e.value = gauge.value();
      entries.push_back(e);
    }
    for (const auto& [name, histogram] : state_->bucket_histograms) {
      Entry e;
      e.name = &name;
      e.kind = MetricKind::kBucketHistogram;
      e.hist = &histogram;
      entries.push_back(e);
    }
  }
  MetricsSnapshot snap;
  snap.metrics.reserve(entries.size());
  for (const Entry& e : entries) {
    MetricValue m;
    m.name = *e.name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        m.count = e.count;
        break;
      case MetricKind::kGauge:
        m.value = e.value;
        break;
      case MetricKind::kBucketHistogram: {
        const HistogramSnapshot s = e.hist->snapshot();
        m.count = s.count();
        m.value = s.sum;
        m.mean = s.mean();
        m.min = s.quantile(0.0);
        m.max = s.quantile(1.0);
        m.p50 = s.quantile(0.50);
        m.p90 = s.quantile(0.90);
        m.p95 = s.quantile(0.95);
        m.p99 = s.quantile(0.99);
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace matchsparse::obs
