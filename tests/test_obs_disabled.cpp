// Compile-time-off contract for the observability layer: with
// MATCHSPARSE_OBS_ENABLED forced to 0 *in this translation unit only*,
// the obs headers must provide header-only no-ops — empty Span, inert
// Counter/Gauge/BucketHistogram, a Tracer that exports nothing — so that
// instrumented call sites compile to nothing and link without any
// library symbols. The enabled and disabled APIs live in distinct inline
// namespaces, which is what lets this TU coexist with test_obs.cpp
// (built with the default enabled API) in one binary without ODR
// violations.
//
// The manifest API is deliberately *not* compile-time gated; this TU
// checks it still emits identity fields with empty metrics/spans.
#define MATCHSPARSE_OBS_ENABLED 0

#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matchsparse {
namespace {

// The disabled Span carries no state — the compiler can elide it
// entirely. (An empty class has size 1, not 0, by the standard.)
static_assert(std::is_empty_v<obs::Span>,
              "disabled Span must carry no members");
static_assert(std::is_empty_v<obs::Counter>,
              "disabled Counter must carry no members");
static_assert(std::is_empty_v<obs::Gauge>,
              "disabled Gauge must carry no members");
static_assert(std::is_empty_v<obs::BucketHistogram>,
              "disabled BucketHistogram must carry no members");

TEST(ObsDisabled, SpansAndTracerAreInert) {
  obs::Tracer::instance().set_enabled(true);  // must be a no-op
  EXPECT_FALSE(obs::Tracer::instance().is_enabled());
  {
    const obs::Span span("never.recorded");
  }
  EXPECT_TRUE(obs::Tracer::instance().events().empty());
  EXPECT_EQ(obs::Tracer::instance().write_chrome(),
            "{\"traceEvents\":[]}");
  EXPECT_EQ(obs::Tracer::instance().write_ndjson(), "");
  EXPECT_EQ(obs::Tracer::instance().span_summary_json(), "{}");
}

TEST(ObsDisabled, InstrumentsAreInert) {
  obs::Counter& c = obs::counter("never.counted");
  c.add(1000);
  EXPECT_EQ(c.value(), 0u);
  obs::Gauge& g = obs::gauge("never.gauged");
  g.set(3.14);
  EXPECT_EQ(g.value(), 0.0);
  obs::BucketHistogram& bh = obs::bucket_histogram("never.bucketed");
  bh.observe(1.0);
  bh.merge(obs::HistogramSnapshot{});
  EXPECT_EQ(bh.snapshot().count(), 0u);
  EXPECT_TRUE(bh.snapshot().buckets.empty());
  EXPECT_TRUE(obs::metrics_snapshot().metrics.empty());
}

TEST(ObsDisabled, ManifestStillEmitsIdentity) {
  // This TU's calls feed the disabled no-ops, but run_manifest_json is a
  // library function compiled with the enabled API — the point is the
  // manifest schema (identity fields) survives either way.
  obs::RunManifest m;
  m.tool = "test_obs_disabled";
  m.seed = 7;
  const std::string json = obs::run_manifest_json(m);
  EXPECT_NE(json.find("\"tool\":\"test_obs_disabled\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"git\":"), std::string::npos);
}

}  // namespace
}  // namespace matchsparse
