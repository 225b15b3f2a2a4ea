// Order statistics over one run's samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A tail quantile is reported only when at least this many samples lie
/// beyond it; otherwise the tail reads null.
inline constexpr std::size_t kMinBeyondTail = 10;

/// One measured quantity's samples. Quantiles use the nearest-rank rule:
/// the q-quantile is the ceil(q·n)-th smallest sample.
class Samples {
 public:
  void add(double x);
  std::size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

  /// nullopt on an empty sample.
  std::optional<double> quantile(double q) const;
  std::optional<double> mean() const;
  /// Samples ranked strictly above the q-quantile: n − ceil(q·n).
  std::size_t beyond(double q) const;

 private:
  const std::vector<double>& sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = true;
};

}  // namespace perfbench
