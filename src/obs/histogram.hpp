// Lock-free fixed-log-bucket histogram — the registry's only
// distribution instrument (DESIGN.md §16).
//
// A daemon hot path has dozens of session threads recording a latency
// per request while a scrape may walk the distribution concurrently, so
// BucketHistogram takes no lock: it keeps a fixed array of atomic
// per-bucket counters over log-spaced value buckets:
//
//   observe()   one relaxed fetch_add on the bucket counter (plus one
//               relaxed CAS-add on the running sum) — no locks, no
//               allocation, wait-free for the bucket count;
//   snapshot()  a relaxed sweep of the counters into a plain
//               HistogramSnapshot, from which p50/p90/p95/p99 (any
//               quantile) are estimated;
//   merge()     bucketwise counter addition — histograms merged in any
//               association produce identical bucket contents, which is
//               what lets per-request registries fold into a server-
//               owned one without ordering the requests.
//
// Bucket layout (the bucket_layout namespace): each power-of-two octave
// [2^e, 2^{e+1}) is split into kSubBuckets linear sub-buckets, HdrHistogram
// style — the sub-bucket of a positive double is just the top mantissa
// bits, so indexing is a handful of integer ops on the bit pattern.
// Octaves 2^kMinExp .. 2^kMaxExp are representable exactly; anything
// below (including zero, negatives, and NaN) lands in a dedicated
// underflow bucket, anything at or above 2^{kMaxExp+1} (including +inf)
// in an overflow bucket.
//
// Error bound: a quantile estimate reports the midpoint of the bucket
// holding the exact rank-q order statistic, and bucket edges within an
// octave are lo·(1+s/8) — so for in-range samples
//
//   |estimate - exact| / exact  <=  kQuantileRelativeError  =  1/16,
//
// worst-cased by the first sub-bucket of an octave (width lo/8 around a
// midpoint >= lo·17/16). Underflow/overflow samples report the bucket
// edge instead and carry no relative-error guarantee (they are outside
// the representable range by definition).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace matchsparse::obs {

namespace bucket_layout {

/// Sub-buckets per power-of-two octave (must be a power of two: the
/// sub-index is read straight off the top mantissa bits).
inline constexpr int kSubBucketBits = 3;
inline constexpr int kSubBuckets = 1 << kSubBucketBits;  // 8

/// Smallest / largest representable octave: values in
/// [2^kMinExp, 2^{kMaxExp+1}) are bucketed with bounded relative error.
/// The span covers nanoseconds-as-seconds (2^-30 ~ 1e-9) up to ~17e9
/// (2^34), wide enough for latencies in ms or us, byte counts, and
/// probe counts alike.
inline constexpr int kMinExp = -30;
inline constexpr int kMaxExp = 33;
inline constexpr int kOctaves = kMaxExp - kMinExp + 1;  // 64

/// Slot 0 is underflow, slots [1, kRangeBuckets] the in-range buckets,
/// slot kSlots-1 overflow.
inline constexpr std::size_t kRangeBuckets =
    static_cast<std::size_t>(kOctaves) * kSubBuckets;  // 512
inline constexpr std::size_t kUnderflowSlot = 0;
inline constexpr std::size_t kOverflowSlot = kRangeBuckets + 1;
inline constexpr std::size_t kSlots = kRangeBuckets + 2;  // 514

/// Documented quantile relative-error bound for in-range samples.
inline constexpr double kQuantileRelativeError = 1.0 / 16.0;

/// Bucket slot of a sample. Zero, negatives, NaN, and anything below
/// 2^kMinExp underflow; +inf and anything >= 2^{kMaxExp+1} overflow.
inline std::size_t index_of(double v) {
  if (!(v > 0.0)) return kUnderflowSlot;  // also catches NaN
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int raw_exp = static_cast<int>((bits >> 52) & 0x7ff);
  if (raw_exp == 0) return kUnderflowSlot;  // subnormal: below 2^-1022
  if (raw_exp == 0x7ff) return kOverflowSlot;  // +inf
  const int exp = raw_exp - 1023;
  if (exp < kMinExp) return kUnderflowSlot;
  if (exp > kMaxExp) return kOverflowSlot;
  const auto sub =
      static_cast<std::size_t>((bits >> (52 - kSubBucketBits)) &
                               (kSubBuckets - 1));
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

/// Inclusive lower edge of a slot (0 for underflow).
double lower_edge(std::size_t slot);
/// Exclusive upper edge of a slot (+inf for overflow).
double upper_edge(std::size_t slot);
/// The value a slot reports for quantiles: the bucket midpoint for
/// in-range slots, the edge for the underflow/overflow sentinels.
double representative(std::size_t slot);

}  // namespace bucket_layout

/// A point-in-time copy of a BucketHistogram: plain integers, safe to
/// pass around, merge, and query without touching the live instrument.
/// Default-constructed snapshots are empty.
struct HistogramSnapshot {
  /// Either empty (no samples ever recorded) or exactly
  /// bucket_layout::kSlots entries.
  std::vector<std::uint64_t> buckets;
  std::uint64_t total = 0;
  double sum = 0.0;

  std::uint64_t count() const { return total; }
  double mean() const {
    return total != 0 ? sum / static_cast<double>(total) : 0.0;
  }

  /// Estimate of the q-quantile (0 <= q <= 1) under the documented
  /// relative-error bound: the reported value is the representative of
  /// the bucket holding the order statistic of rank ceil(q * count)
  /// (rank 1 for q = 0). Returns 0 when empty.
  double quantile(double q) const;

  /// Bucketwise addition — exact, commutative, and associative.
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

class BucketHistogram {
 public:
  BucketHistogram() = default;
  BucketHistogram(const BucketHistogram&) = delete;
  BucketHistogram& operator=(const BucketHistogram&) = delete;

  /// Lock-free: one relaxed fetch_add on the bucket, one relaxed
  /// CAS-add on the running sum. Safe from any number of threads.
  void observe(double v) {
    buckets_[bucket_layout::index_of(v)].fetch_add(
        1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Relaxed sweep of the counters. Concurrent observes may or may not
  /// be included (each is included atomically — a bucket count never
  /// tears), so total/sum are a consistent-enough live view, never an
  /// invented value.
  HistogramSnapshot snapshot() const;

  /// Adds `other`'s buckets into this histogram.
  void merge(const HistogramSnapshot& other);
  void merge(const BucketHistogram& other) { merge(other.snapshot()); }

 private:
  std::array<std::atomic<std::uint64_t>, bucket_layout::kSlots> buckets_{};
  std::atomic<double> sum_{0.0};
};

}  // namespace matchsparse::obs
