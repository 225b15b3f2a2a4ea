// The four workloads. README.md gives why each exists, what it measures
// and the layer shares measured on it.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken inputs, for the benchmark's own tests.
  bool small = false;
  std::string git = "unknown";  // the measured tree, as run.py read it
  std::string daemon;           // the matchsparse_serve binary
  std::string work_dir;  // daemon sockets and logs, the Chrome trace file

  std::string trace_file() const {
    return work_dir + "/trace-" + workload + "-" + std::to_string(seed) +
           ".json";
  }
};

struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

bool is_lib_workload(const std::string& name);
bool is_serve_workload(const std::string& name);

void run_lib(const Options& opts, Outcome& out);
void run_serve(const Options& opts, Outcome& out);

}  // namespace perfbench
