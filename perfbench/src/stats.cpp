#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

std::size_t rank_of(double q, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

void Samples::add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

const std::vector<double>& Samples::sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

std::optional<double> Samples::quantile(double q) const {
  if (values_.empty()) return std::nullopt;
  return sorted()[rank_of(q, values_.size()) - 1];
}

std::optional<double> Samples::mean() const {
  if (values_.empty()) return std::nullopt;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

std::size_t Samples::beyond(double q) const {
  if (values_.empty()) return 0;
  return values_.size() - rank_of(q, values_.size());
}

}  // namespace perfbench
