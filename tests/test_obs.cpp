// Observability layer (src/obs/): span nesting and thread attribution,
// registry snapshot determinism under concurrency, Chrome trace export
// well-formedness, and the run manifest.
//
// The tracer and registry are process-global singletons shared with every
// other test in this binary, so each test here uses its own metric names
// and clears the tracer around its span work.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace matchsparse {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON syntax checker (objects, arrays, strings, numbers,
// true/false/null) — enough to assert the exported trace and manifest
// are well-formed without a JSON dependency.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool valid_json(const std::string& text) {
  return JsonParser(text).parse();
}

/// Scoped tracer session: clears + enables on entry, disables + clears
/// on exit so span tests cannot leak events into each other.
class TracerSession {
 public:
  TracerSession() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  ~TracerSession() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }
};

TEST(ObsTrace, SpansNestWithDepth) {
  TracerSession session;
  {
    const obs::Span outer("test.outer");
    {
      const obs::Span inner("test.inner");
      const obs::Span innermost("test.innermost");
    }
  }
  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, obs::TraceEvent> by_name;
  for (const auto& e : events) by_name[e.name] = e;
  EXPECT_EQ(by_name.at("test.outer").depth, 0u);
  EXPECT_EQ(by_name.at("test.inner").depth, 1u);
  EXPECT_EQ(by_name.at("test.innermost").depth, 2u);
  // All on the same thread, and children begin no earlier than parents.
  EXPECT_EQ(by_name.at("test.outer").tid, by_name.at("test.inner").tid);
  EXPECT_GE(by_name.at("test.inner").ts_us, by_name.at("test.outer").ts_us);
}

TEST(ObsTrace, EventsRespectStackDiscipline) {
  TracerSession session;
  for (int i = 0; i < 3; ++i) {
    const obs::Span a("test.a");
    { const obs::Span b("test.b"); }
    { const obs::Span c("test.c"); }
  }
  // Stack discipline: every depth-d event (d > 0) is contained in the
  // interval of some depth-(d-1) event on the same thread — exactly the
  // property a trace viewer needs to nest the tracks correctly.
  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 9u);
  for (const auto& e : events) {
    if (e.depth == 0) continue;
    bool contained = false;
    for (const auto& p : events) {
      if (p.tid == e.tid && p.depth == e.depth - 1 && p.ts_us <= e.ts_us &&
          e.ts_us + e.dur_us <= p.ts_us + p.dur_us) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "orphan nested span " << e.name;
  }
  // "test.a" appears three times at depth 0, its children at depth 1.
  std::size_t roots = 0;
  for (const auto& e : events) {
    if (e.name == "test.a") {
      EXPECT_EQ(e.depth, 0u);
      ++roots;
    } else {
      EXPECT_EQ(e.depth, 1u);
    }
  }
  EXPECT_EQ(roots, 3u);
}

TEST(ObsTrace, PoolWorkersGetTheirOwnThreadIds) {
  TracerSession session;
  ThreadPool pool(2);
  {
    const obs::Span root("test.root");
    parallel_for(pool, 8, [](std::size_t) {
      const obs::Span shard("test.shard");
    });
  }
  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 9u);
  std::uint32_t root_tid = 0;
  std::vector<std::uint32_t> shard_tids;
  for (const auto& e : events) {
    if (e.name == "test.root") {
      root_tid = e.tid;
    } else {
      EXPECT_EQ(e.name, "test.shard");
      shard_tids.push_back(e.tid);
    }
  }
  ASSERT_EQ(shard_tids.size(), 8u);
  // Worker spans never run on the calling thread's track, and with two
  // workers at least one distinct tid appears (the workers are distinct
  // threads from the caller by construction).
  for (const std::uint32_t t : shard_tids) EXPECT_NE(t, root_tid);
  // Worker spans are top-level on their own threads: the caller's open
  // span does not leak its depth across threads.
  for (const auto& e : events) {
    if (e.name == "test.shard") {
      EXPECT_EQ(e.depth, 0u);
    }
  }
}

TEST(ObsTrace, ChromeExportIsWellFormedJson) {
  TracerSession session;
  ThreadPool pool(2);
  {
    const obs::Span root("test.chrome \"quoted\" \\ name");
    parallel_for(pool, 4, [](std::size_t) {
      const obs::Span shard("test.chrome.shard");
    });
  }
  const std::string chrome = obs::Tracer::instance().write_chrome();
  EXPECT_TRUE(valid_json(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  // One event per span: 1 root + 4 shards.
  std::size_t count = 0;
  for (std::size_t pos = chrome.find("\"ph\":\"X\"");
       pos != std::string::npos; pos = chrome.find("\"ph\":\"X\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 5u);

  const std::string ndjson = obs::Tracer::instance().write_ndjson();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < ndjson.size()) {
    const std::size_t end = ndjson.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(valid_json(ndjson.substr(start, end - start)));
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 5u);

  EXPECT_TRUE(valid_json(obs::Tracer::instance().span_summary_json()));
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_enabled(false);
  {
    const obs::Span span("test.disabled");
  }
  EXPECT_TRUE(obs::Tracer::instance().events().empty());
}

TEST(ObsMetrics, CounterGaugeHistogramRoundTrip) {
  obs::counter("test.roundtrip.count").add(3);
  obs::counter("test.roundtrip.count").add(4);
  obs::gauge("test.roundtrip.ratio").set(0.75);
  obs::bucket_histogram("test.roundtrip.us").observe(10.0);
  obs::bucket_histogram("test.roundtrip.us").observe(30.0);

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  EXPECT_EQ(snap.counter_value("test.roundtrip.count"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("test.roundtrip.ratio"), 0.75);
  const obs::MetricValue* h = snap.find("test.roundtrip.us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->value, 40.0);
  EXPECT_DOUBLE_EQ(h->mean, 20.0);
  // min/max are bucket representatives, within the layout's error bound.
  constexpr double kErr = obs::bucket_layout::kQuantileRelativeError;
  EXPECT_NEAR(h->min, 10.0, 10.0 * kErr);
  EXPECT_NEAR(h->max, 30.0, 30.0 * kErr);
  EXPECT_EQ(snap.counter_value("test.roundtrip.never_registered"), 0u);
  EXPECT_TRUE(valid_json(snap.to_json()));
}

TEST(ObsMetrics, StableAddressesAllowCaching) {
  obs::Counter& a = obs::counter("test.stable.counter");
  obs::Counter& b = obs::counter("test.stable.counter");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, SnapshotDeterministicUnderThreads) {
  // Two interleaving-independent runs of the same concurrent workload
  // must serialize to byte-identical snapshots: counters are
  // order-independent sums and the snapshot is sorted by name.
  ThreadPool pool(4);
  const auto workload = [&pool]() {
    parallel_for(pool, 64, [](std::size_t i) {
      obs::counter("test.determinism.ops").add(i);
      obs::counter("test.determinism.calls").add(1);
      obs::gauge("test.determinism.last_round").set(7.0);
    });
  };

  const auto restrict_to_test = [](const obs::MetricsSnapshot& s) {
    std::string out;
    for (const auto& m : s.metrics) {
      if (m.name.rfind("test.determinism.", 0) == 0) {
        out += m.name + "=" + std::to_string(m.count) + "/" +
               std::to_string(m.value) + ";";
      }
    }
    return out;
  };

  workload();
  const std::uint64_t ops1 =
      obs::metrics_snapshot().counter_value("test.determinism.ops");
  const std::uint64_t calls1 =
      obs::metrics_snapshot().counter_value("test.determinism.calls");
  EXPECT_EQ(ops1, 64u * 63u / 2u);
  EXPECT_EQ(calls1, 64u);
  const std::string first = restrict_to_test(obs::metrics_snapshot());

  // The second run adds the exact same deltas, so the delta between
  // serializations is interleaving-independent too.
  workload();
  const obs::MetricsSnapshot after = obs::metrics_snapshot();
  EXPECT_EQ(after.counter_value("test.determinism.ops"), 2 * ops1);
  EXPECT_EQ(after.counter_value("test.determinism.calls"), 2 * calls1);
  // Names arrive sorted regardless of registration interleavings.
  EXPECT_TRUE(std::is_sorted(
      after.metrics.begin(), after.metrics.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
  EXPECT_FALSE(first.empty());
}

TEST(ObsMetrics, BucketHistogramRoundTripsThroughSnapshotAndMerge) {
  obs::Registry reg;
  obs::BucketHistogram& h = reg.bucket_histogram("test.bucket.ms");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue* m = snap.find("test.bucket.ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::kBucketHistogram);
  EXPECT_EQ(m->count, 100u);
  EXPECT_LE(m->p50, m->p90);
  EXPECT_LE(m->p90, m->p95);
  EXPECT_LE(m->p95, m->p99);
  EXPECT_NEAR(m->p50, 50.0, 50.0 / 16.0);
  EXPECT_NEAR(m->p99, 99.0, 99.0 / 16.0);

  // merge_into carries bucket histograms across registries exactly.
  obs::Registry target;
  reg.merge_into(target);
  reg.merge_into(target);
  const obs::MetricsSnapshot folded_snap = target.snapshot();
  const obs::MetricValue* folded = folded_snap.find("test.bucket.ms");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->count, 200u);
}

TEST(ObsMetrics, SnapshotNeverBlocksConcurrentObserves) {
  // The two-phase snapshot (raw values under the registry lock, every
  // instrument read and allocation outside it): a scrape loop running
  // against 4 observer threads must neither deadlock nor lose samples.
  // The TSan lane (scripts/run_sanitizers.sh) runs this for races.
  obs::Registry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.snapshot();
    }
  });
  {
    ThreadPool pool(kThreads);
    parallel_for(pool, kThreads, [&reg](std::size_t) {
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter("test.contention.calls").add(1);
        reg.bucket_histogram("test.contention.ms")
            .observe(0.1 * static_cast<double>(i % 97 + 1));
      }
    });
  }
  stop.store(true, std::memory_order_release);
  scraper.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto expected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.counter_value("test.contention.calls"), expected);
  const obs::MetricValue* bucket = snap.find("test.contention.ms");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->count, expected);
}

TEST(ObsManifest, JsonShapeAndIdentityFields) {
  obs::RunManifest m;
  m.tool = "test_obs";
  m.config = "beta=2 eps=\"quoted\"";
  m.seed = 424242;
  m.threads = 3;
  const std::string json = obs::run_manifest_json(m);
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"tool\":\"test_obs\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":424242"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":3"), std::string::npos);
  EXPECT_NE(json.find("\"git\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":"), std::string::npos);
  // Observability is always compiled in, so the manifest has no flag
  // saying whether it was.
  EXPECT_EQ(json.find("obs_enabled"), std::string::npos);
  // git_describe never dangles: it is a compile-time constant.
  EXPECT_NE(obs::git_describe(), nullptr);
  EXPECT_NE(std::string(obs::git_describe()), "");
}

}  // namespace
}  // namespace matchsparse
