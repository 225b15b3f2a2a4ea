// Shared plumbing for the experiment binaries (DESIGN.md section 4).
#pragma once

#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "gen/families.hpp"
#include "matching/blossom.hpp"
#include "matching/bounded_aug.hpp"
#include "obs/manifest.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace matchsparse::bench {

/// Reference MCM size: exact blossom up to `exact_limit` vertices, a
/// near-exact bounded-length matcher beyond (eps = 0.02, so the reference
/// is within 2% and the measured ratios remain meaningful at scale).
inline VertexId reference_mcm_size(const Graph& g,
                                   VertexId exact_limit = 3000) {
  if (g.num_vertices() <= exact_limit) return blossom_mcm(g).size();
  return approx_mcm(g, 0.02).size();
}

/// Runs `trials` independent seeded trials in parallel and feeds each
/// result into a StreamingStats.
inline StreamingStats parallel_trials(
    int trials, const std::function<double(std::uint64_t seed)>& trial) {
  StreamingStats stats;
  std::mutex mu;
  parallel_for(static_cast<std::size_t>(trials), [&](std::size_t t) {
    const double value = trial(static_cast<std::uint64_t>(t) + 1);
    std::lock_guard<std::mutex> lock(mu);
    stats.add(value);
  });
  return stats;
}

/// Prints a banner naming the experiment and the paper claim it tests.
inline void banner(const char* experiment, const char* claim) {
  std::printf("\n######## %s\n# claim: %s\n", experiment, claim);
}

/// Composes one flat JSON object. Keys are emitted in call order; values
/// are typed through the num()/str()/boolean() helpers so no manual
/// escaping or formatting happens at call sites.
class JsonRow {
 public:
  JsonRow& str(const char* key, const std::string& value) {
    open(key);
    append_json_string(out_, value);
    return *this;
  }
  JsonRow& num(const char* key, double value, int precision = 6) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    open(key);
    out_ += buf;
    return *this;
  }
  JsonRow& num(const char* key, std::uint64_t value) {
    open(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonRow& boolean(const char* key, bool value) {
    open(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  std::string finish() const { return out_ + "}"; }

 private:
  void open(const char* key) {
    out_ += first_ ? '{' : ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
  std::string out_;
  bool first_ = true;
};

/// Appends JSON rows to BENCH_<name>.json (one object per line, ndjson)
/// and mirrors each row to stdout, so trajectories land in a
/// machine-readable file alongside the pretty tables.
///
/// Every row is stamped with run-identity fields so historical files
/// stay comparable: "git" (git describe at configure time),
/// "pool_threads" (worker count of the shared pool the run had
/// available — distinct from any per-row workload "threads" column),
/// and, when the bench registered one via set_seed(), "seed".
class JsonlSink {
 public:
  explicit JsonlSink(const std::string& bench_name)
      : file_(std::fopen(("BENCH_" + bench_name + ".json").c_str(), "w")) {}
  ~JsonlSink() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  /// Registers the bench's master RNG seed for the identity stamp.
  void set_seed(std::uint64_t seed) {
    seed_ = seed;
    has_seed_ = true;
  }

  void row(const JsonRow& r) {
    JsonRow stamped = r;
    stamped.str("git", obs::git_describe())
        .num("pool_threads",
             static_cast<std::uint64_t>(default_pool().size()));
    if (has_seed_) stamped.num("seed", seed_);
    const std::string line = stamped.finish();
    std::printf("%s\n", line.c_str());
    if (file_ != nullptr) {
      std::fprintf(file_, "%s\n", line.c_str());
      std::fflush(file_);
    }
  }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t seed_ = 0;
  bool has_seed_ = false;
};

}  // namespace matchsparse::bench
