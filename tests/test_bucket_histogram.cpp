// obs::BucketHistogram — the lock-free serving-path histogram
// (DESIGN.md §16). These tests pin the three properties the telemetry
// plane leans on:
//
//   - the documented quantile error bound: every in-range estimate is
//     within bucket_layout::kQuantileRelativeError (1/16) of the exact
//     order statistic, checked against sorted samples for point-mass,
//     bimodal, and heavy-tailed shapes;
//   - merge() is exact bucketwise addition, so any association of
//     merges produces the same snapshot — the property that lets
//     per-request registries fold into the server's in any order;
//   - observe() is safe and lossless under thread storms (run under
//     TSan by scripts/run_sanitizers.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

namespace layout = obs::bucket_layout;

/// Exact q-quantile under the histogram's rank convention: the order
/// statistic of rank ceil(q * n), rank 1 for q = 0.
double exact_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

/// Feeds `samples` and checks p50/p90/p95/p99 (plus the extremes)
/// against the exact sorted-sample quantiles under the documented
/// relative-error bound.
void expect_quantiles_within_bound(const std::vector<double>& samples) {
  obs::BucketHistogram h;
  double sum = 0.0;
  for (const double v : samples) {
    h.observe(v);
    sum += v;
  }
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count(), samples.size());
  EXPECT_NEAR(snap.sum, sum, 1e-9 * std::abs(sum) + 1e-12);
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = exact_quantile(samples, q);
    const double est = snap.quantile(q);
    EXPECT_LE(std::abs(est - exact),
              layout::kQuantileRelativeError * exact)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(BucketLayout, EdgesBracketTheirSamplesAndRepresentativesSitInside) {
  Rng rng(0xb0c4e7);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform across the representable span (and a bit beyond).
    const double exp = -32.0 + 68.0 * rng.uniform();
    const double v = std::exp2(exp) * (1.0 + rng.uniform());
    const std::size_t slot = layout::index_of(v);
    ASSERT_LT(slot, layout::kSlots);
    if (slot != layout::kUnderflowSlot && slot != layout::kOverflowSlot) {
      EXPECT_LE(layout::lower_edge(slot), v);
      EXPECT_LT(v, layout::upper_edge(slot));
      const double rep = layout::representative(slot);
      EXPECT_LE(layout::lower_edge(slot), rep);
      EXPECT_LT(rep, layout::upper_edge(slot));
      // The in-range relative error bound, bucket by bucket: the
      // midpoint is within 1/16 of anything in the bucket.
      EXPECT_LE(layout::upper_edge(slot) - layout::lower_edge(slot),
                2.0 * layout::kQuantileRelativeError *
                    layout::lower_edge(slot) * 1.0001);
    }
  }
}

TEST(BucketLayout, SentinelsCatchEverythingOutsideTheRange) {
  EXPECT_EQ(layout::index_of(0.0), layout::kUnderflowSlot);
  EXPECT_EQ(layout::index_of(-1.0), layout::kUnderflowSlot);
  EXPECT_EQ(layout::index_of(std::numeric_limits<double>::quiet_NaN()),
            layout::kUnderflowSlot);
  EXPECT_EQ(layout::index_of(-std::numeric_limits<double>::infinity()),
            layout::kUnderflowSlot);
  EXPECT_EQ(layout::index_of(std::exp2(layout::kMinExp) / 4.0),
            layout::kUnderflowSlot);
  EXPECT_EQ(layout::index_of(std::numeric_limits<double>::denorm_min()),
            layout::kUnderflowSlot);
  EXPECT_EQ(layout::index_of(std::numeric_limits<double>::infinity()),
            layout::kOverflowSlot);
  EXPECT_EQ(layout::index_of(std::exp2(layout::kMaxExp + 1)),
            layout::kOverflowSlot);
  // The range boundaries themselves are in range.
  EXPECT_NE(layout::index_of(std::exp2(layout::kMinExp)),
            layout::kUnderflowSlot);
  EXPECT_NE(layout::index_of(std::nextafter(std::exp2(layout::kMaxExp + 1),
                                            0.0)),
            layout::kOverflowSlot);
}

TEST(BucketHistogram, EmptyHistogramIsAllZeros) {
  obs::BucketHistogram h;
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.quantile(1.0), 0.0);
}

TEST(BucketHistogram, PointMassQuantilesAreTheMass) {
  // Every quantile of a point mass must land in the bucket of the mass.
  expect_quantiles_within_bound(std::vector<double>(1000, 3.25));
}

TEST(BucketHistogram, BimodalQuantilesPickTheRightMode) {
  // 70% fast mode at ~0.05ms, 30% slow mode at ~40ms: p50 must sit in
  // the fast mode, p95/p99 in the slow one, all within the bound.
  std::vector<double> samples;
  Rng rng(0x51b0da1);
  for (int i = 0; i < 7000; ++i) {
    samples.push_back(0.04 + 0.02 * rng.uniform());
  }
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(35.0 + 10.0 * rng.uniform());
  }
  expect_quantiles_within_bound(samples);
}

TEST(BucketHistogram, HeavyTailQuantilesStayWithinTheBound) {
  // Pareto-ish tail spanning five decades — the shape that defeats
  // mean/stddev summaries and is exactly what p99 is for.
  std::vector<double> samples;
  Rng rng(0x7a11);
  for (int i = 0; i < 20000; ++i) {
    const double u = 1.0 - rng.uniform();  // (0, 1]
    samples.push_back(0.1 / std::pow(u, 1.5));
  }
  expect_quantiles_within_bound(samples);
}

TEST(BucketHistogram, OutOfRangeSamplesReportTheSentinelEdges) {
  obs::BucketHistogram h;
  h.observe(0.0);                                        // underflow
  h.observe(std::numeric_limits<double>::infinity());    // overflow
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(), 2u);
  // Underflow reports the bottom edge (0), overflow the top edge.
  EXPECT_EQ(snap.quantile(0.0), layout::representative(layout::kUnderflowSlot));
  EXPECT_EQ(snap.quantile(1.0), layout::representative(layout::kOverflowSlot));
  EXPECT_EQ(snap.buckets[layout::kUnderflowSlot], 1u);
  EXPECT_EQ(snap.buckets[layout::kOverflowSlot], 1u);
}

TEST(BucketHistogram, MergeIsExactAndAssociative) {
  Rng rng(0x3e46e);
  std::vector<std::vector<double>> parts(3);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (int i = 0; i < 500; ++i) {
      parts[p].push_back(std::exp2(-5.0 + 15.0 * rng.uniform()));
    }
  }
  const auto fill = [&](std::initializer_list<std::size_t> which) {
    obs::BucketHistogram h;
    for (const std::size_t p : which) {
      for (const double v : parts[p]) h.observe(v);
    }
    return h.snapshot();
  };

  // (a + b) + c merged as snapshots, in both associations.
  obs::HistogramSnapshot left = fill({0});
  left.merge(fill({1}));
  left.merge(fill({2}));
  obs::HistogramSnapshot right = fill({2});
  obs::HistogramSnapshot bc = fill({1});
  bc.merge(right);
  obs::HistogramSnapshot assoc = fill({0});
  assoc.merge(bc);
  EXPECT_EQ(left.buckets, assoc.buckets);
  EXPECT_EQ(left.total, assoc.total);
  EXPECT_EQ(left.total, 1500u);

  // And merging into a live histogram gives the same buckets as
  // observing everything directly.
  obs::BucketHistogram live;
  for (const double v : parts[0]) live.observe(v);
  live.merge(fill({1}));
  live.merge(fill({2}));
  EXPECT_EQ(live.snapshot().buckets, left.buckets);
  EXPECT_EQ(fill({0, 1, 2}).buckets, left.buckets);
}

TEST(BucketHistogram, ObserveStormFromEightThreadsLosesNothing) {
  // 8 threads x 20k observes on one histogram: the bucket counters are
  // relaxed atomics, so the final snapshot must account for every
  // sample exactly (and TSan must stay quiet — run_sanitizers.sh runs
  // this suite in the thread lane).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  obs::BucketHistogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(0x57044 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        // Mixed magnitudes so many distinct buckets contend.
        h.observe(std::exp2(-10.0 + 20.0 * rng.uniform()));
        if (i % 64 == 0) (void)h.snapshot();  // concurrent scrapes
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count());
  EXPECT_GT(snap.sum, 0.0);
}

}  // namespace
}  // namespace matchsparse
