// The one writer every metric goes through.
//
// A run prints two JSON lines on stdout. The first is the full report:
// run stamps (git, seed, nproc, pool size, build type), validity problems,
// and every metric with its unit plus what it rests on (sample count and
// samples beyond a tail, or the base of a ratio). A value that cannot be
// computed — no samples, a zero base, a tail with fewer than
// kMinBeyondTail samples beyond it — prints null there, never NaN or Inf.
//
// The second and last line is the result line in the fixed shape
// {"correct", "attempted", "failed", "metrics"} that consumers of
// BENCHMARK.json read: every end-to-end metric (untraced run) or every
// per-layer metric (traced run), each {"value": number, "unit": ...}. That
// line has no room for a null, so an undefined value reads 0 there; the
// report line above it says why. A run whose end-to-end metrics are not
// all defined is invalid, and an invalid run is never `correct`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark prints, in BENCHMARK.json order.
const std::vector<MetricSpec>& metric_specs();

/// Shortest round-trip decimal for a finite double; "null" otherwise.
std::string json_number(double v);
std::string json_string(std::string_view s);

class Report {
 public:
  /// A plain value; nullopt or a non-finite value prints null.
  void set(std::string_view name, std::optional<double> value);
  /// num / den, or null when den == 0; the base is printed beside it.
  void set_ratio(std::string_view name, double num, double den);
  /// The q-quantile of `s` (null when empty), with the sample count.
  void set_quantile(std::string_view name, const Samples& s, double q);
  /// A tail quantile: null unless at least kMinBeyondTail samples lie
  /// beyond it. Prints the quantile, sample count and samples beyond.
  void set_tail(std::string_view name, const Samples& s, double q);
  /// An extra number printed beside `name`'s value in the report line.
  void note(std::string_view name, std::string_view key, double v);

  void stamp(std::string_view key, std::string_view value);
  void stamp(std::string_view key, double value);

  /// Marks the run invalid and says why.
  void problem(std::string what);
  bool valid(MetricKind printed) const;

  std::optional<double> value(std::string_view name) const;

  std::string report_line(MetricKind printed) const;
  std::string result_line(MetricKind printed, std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  struct Entry {
    std::optional<double> value;
    std::vector<std::pair<std::string, double>> notes;
  };
  Entry& entry(std::string_view name);

  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::vector<std::string> problems_;
};

}  // namespace perfbench
