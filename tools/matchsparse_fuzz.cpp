// matchsparse_fuzz — property-based differential fuzzing driver.
//
//   matchsparse_fuzz [--budget 30s] [--seed N] [--property NAME]...
//                    [--max-n N] [--out DIR] [--corpus DIR] [--log FILE]
//                    [--no-shrink]
//   matchsparse_fuzz --replay FILE [FILE...]
//   matchsparse_fuzz --list
//
// Soak mode draws random (graph, config, property) cells until the time
// budget runs out, shrinks any failure to a minimal counterexample, and
// writes it to --out as a replayable .graph file. --corpus replays every
// *.graph file in a directory before the generative loop (the regression
// corpus doubles as the seed set). --log writes one ndjson line per cell
// ("-" = stdout). Budgets accept "30s", "500ms", "2m", or bare seconds.
//
// Exit codes: 0 = everything passed, 1 = failures found (or bad input
// file), 2 = usage error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/counterexample.hpp"
#include "check/runner.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"

using namespace matchsparse;

namespace {

class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

double parse_budget(const std::string& arg) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(arg, &used);
  } catch (const std::exception&) {
    throw UsageError("--budget must be a duration, got \"" + arg + "\"");
  }
  const std::string unit = arg.substr(used);
  if (unit.empty() || unit == "s") return value;
  if (unit == "ms") return value / 1e3;
  if (unit == "m") return value * 60.0;
  throw UsageError("unknown --budget unit \"" + unit + "\" (use ms, s, m)");
}

std::uint64_t parse_u64(const std::string& arg, const char* what) {
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(arg, &used);
    if (used == arg.size() && arg[0] != '-') return value;
  } catch (const std::exception&) {
  }
  throw UsageError(std::string(what) + " must be a non-negative integer, "
                   "got \"" + arg + "\"");
}

int cmd_list() {
  std::printf("%-40s oracle\n", "property");
  for (const check::Property& p : check::all_properties()) {
    std::printf("%-40s %s\n", p.name.c_str(), p.oracle.c_str());
  }
  return 0;
}

int cmd_replay(const std::vector<std::string>& files) {
  std::size_t failures = 0;
  for (const std::string& path : files) {
    const check::Counterexample cex = check::load_counterexample(path);
    std::printf("%s: n=%u m=%llu property=%s config=[%s]\n", path.c_str(),
                cex.graph.num_vertices(),
                static_cast<unsigned long long>(cex.graph.num_edges()),
                cex.property.c_str(), cex.config.to_string().c_str());
    for (const auto& [name, result] : check::replay_counterexample(cex)) {
      const char* status = result.failed() ? "FAIL"
                           : result.skipped() ? "skip"
                                              : "pass";
      std::printf("  [%s] %s%s%s\n", status, name.c_str(),
                  result.message.empty() ? "" : ": ",
                  result.message.c_str());
      if (result.failed()) ++failures;
    }
  }
  if (failures != 0) {
    std::printf("replay: %zu failing propert%s\n", failures,
                failures == 1 ? "y" : "ies");
    return 1;
  }
  std::printf("replay: all properties pass\n");
  return 0;
}

std::vector<std::string> corpus_files(const std::string& dir) {
  std::vector<std::string> files;
  if (!std::filesystem::is_directory(dir)) {
    throw IoError(dir, 0, "corpus directory does not exist");
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".graph") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Per-property soak summary, read back from the metrics registry the
/// runner populated ("check.<property>.{pass,fail,skip,micros}"). Only
/// properties that actually ran get a row. "total ms" and "mean us" are
/// exact; "~max us" is the top histogram bucket's representative, within
/// bucket_layout::kQuantileRelativeError (1/16) of the true maximum.
void print_property_table(const obs::MetricsSnapshot& snap) {
  bool header = false;
  for (const check::Property& p : check::all_properties()) {
    const std::string prefix = "check." + p.name;
    const std::uint64_t pass = snap.counter_value(prefix + ".pass");
    const std::uint64_t fail = snap.counter_value(prefix + ".fail");
    const std::uint64_t skip = snap.counter_value(prefix + ".skip");
    if (pass + fail + skip == 0) continue;
    if (!header) {
      std::printf("%-40s %7s %6s %5s %10s %10s %10s\n", "property", "cells",
                  "pass", "fail", "total ms", "mean us", "~max us");
      header = true;
    }
    const obs::MetricValue* h = snap.find(prefix + ".micros");
    const double total_us = h != nullptr ? h->value : 0.0;
    std::printf("%-40s %7llu %6llu %5llu %10.1f %10.1f %10.1f\n",
                p.name.c_str(),
                static_cast<unsigned long long>(pass + fail + skip),
                static_cast<unsigned long long>(pass),
                static_cast<unsigned long long>(fail), total_us / 1e3,
                h != nullptr ? h->mean : 0.0, h != nullptr ? h->max : 0.0);
  }
}

int cmd_soak(const check::FuzzOptions& opt_in, const std::string& log_path) {
  check::FuzzOptions opt = opt_in;
  std::FILE* log_file = nullptr;
  if (log_path == "-") {
    opt.log = stdout;
  } else if (!log_path.empty()) {
    log_file = std::fopen(log_path.c_str(), "w");
    if (log_file == nullptr) {
      throw IoError(log_path, 0, "cannot open log for writing");
    }
    opt.log = log_file;
  }

  const check::FuzzStats stats = check::run_fuzz(opt);
  if (log_file != nullptr) std::fclose(log_file);

  print_property_table(obs::metrics_snapshot());
  std::printf("fuzz: %zu graphs, %zu cells (%zu pass, %zu skip, "
              "%zu fail), %zu shrink evals\n",
              stats.graphs, stats.cells, stats.passed, stats.skipped,
              stats.failures, stats.shrink_evals);
  for (const check::Counterexample& cex : stats.counterexamples) {
    std::printf("  FAIL %s [%s] n=%u m=%llu: %s\n", cex.property.c_str(),
                cex.config.to_string().c_str(), cex.graph.num_vertices(),
                static_cast<unsigned long long>(cex.graph.num_edges()),
                cex.message.c_str());
  }
  for (const std::string& path : stats.counterexample_paths) {
    std::printf("  wrote %s (replay: matchsparse_fuzz --replay %s)\n",
                path.c_str(), path.c_str());
  }
  return stats.ok() ? 0 : 1;
}

int dispatch(int argc, char** argv) {
  check::FuzzOptions opt;
  opt.budget_seconds = 30.0;
  std::string log_path;
  std::string corpus_dir;
  std::vector<std::string> replay_files;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--budget") {
      opt.budget_seconds = parse_budget(value());
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value(), "--seed");
    } else if (arg == "--property") {
      const std::string name = value();
      if (check::find_property(name) == nullptr) {
        throw UsageError("unknown property \"" + name +
                         "\" (see --list)");
      }
      opt.properties.push_back(name);
    } else if (arg == "--max-n") {
      opt.max_n = static_cast<VertexId>(parse_u64(value(), "--max-n"));
      if (opt.max_n < 2) throw UsageError("--max-n must be >= 2");
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--corpus") {
      corpus_dir = value();
    } else if (arg == "--log") {
      log_path = value();
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--replay") {
      replay_files.push_back(value());
      // Bare trailing arguments after --replay are more files.
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        replay_files.emplace_back(argv[++i]);
      }
    } else if (arg == "--list") {
      list = true;
    } else {
      throw UsageError("unknown argument \"" + arg + "\"");
    }
  }

  if (list) return cmd_list();
  if (!replay_files.empty()) return cmd_replay(replay_files);
  if (!corpus_dir.empty()) opt.seed_files = corpus_files(corpus_dir);
  return cmd_soak(opt, log_path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return dispatch(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "matchsparse_fuzz: %s\n", e.what());
    return 2;
  } catch (const IoError& e) {
    std::fprintf(stderr, "matchsparse_fuzz: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "matchsparse_fuzz: unexpected error: %s\n",
                 e.what());
    return 1;
  }
}
