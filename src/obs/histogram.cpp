#include "obs/histogram.hpp"

#include <cmath>
#include <limits>

namespace matchsparse::obs {

namespace bucket_layout {

double lower_edge(std::size_t slot) {
  if (slot == kUnderflowSlot) return 0.0;
  if (slot >= kOverflowSlot) return std::ldexp(1.0, kMaxExp + 1);
  const std::size_t k = slot - 1;
  const int octave = static_cast<int>(k / kSubBuckets);
  const auto sub = static_cast<double>(k % kSubBuckets);
  return std::ldexp(1.0 + sub / kSubBuckets, kMinExp + octave);
}

double upper_edge(std::size_t slot) {
  if (slot == kUnderflowSlot) return std::ldexp(1.0, kMinExp);
  if (slot >= kOverflowSlot) return std::numeric_limits<double>::infinity();
  const std::size_t k = slot - 1;
  const int octave = static_cast<int>(k / kSubBuckets);
  const auto sub = static_cast<double>(k % kSubBuckets);
  return std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, kMinExp + octave);
}

double representative(std::size_t slot) {
  if (slot == kUnderflowSlot) return 0.0;
  if (slot >= kOverflowSlot) return lower_edge(slot);
  return 0.5 * (lower_edge(slot) + upper_edge(slot));
}

}  // namespace bucket_layout

double HistogramSnapshot::quantile(double q) const {
  if (total == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double exact_rank = q * static_cast<double>(total);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(exact_rank));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (std::size_t slot = 0; slot < buckets.size(); ++slot) {
    cum += buckets[slot];
    if (cum >= rank) return bucket_layout::representative(slot);
  }
  return bucket_layout::representative(buckets.size() - 1);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.buckets.empty()) return;
  if (buckets.empty()) {
    *this = other;
    return;
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  total += other.total;
  sum += other.sum;
}

HistogramSnapshot BucketHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(bucket_layout::kSlots, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bucket_layout::kSlots; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    snap.buckets[i] = c;
    total += c;
  }
  snap.total = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (total == 0) return HistogramSnapshot{};  // canonical empty form
  return snap;
}

void BucketHistogram::merge(const HistogramSnapshot& other) {
  if (other.buckets.empty()) return;
  for (std::size_t i = 0; i < bucket_layout::kSlots; ++i) {
    if (other.buckets[i] != 0) {
      buckets_[i].fetch_add(other.buckets[i], std::memory_order_relaxed);
    }
  }
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + other.sum,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace matchsparse::obs
